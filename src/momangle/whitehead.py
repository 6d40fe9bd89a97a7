"""Iterated higher Whitehead product expressions and their realisability.

An expression is a rooted tree: leaves are distinct coordinate-map labels,
every bracket has at least two arguments.  Children are normalised so that
sub-brackets precede leaves (ordered by smallest leaf); reordering only
moves canonical chains by a sign, and normalising pins the golden outputs.

The canonical complex of an expression is built by substitution: a bracket
with sub-products w_1..w_q and leaves i_1..i_p gets

    bd_Delta(w) = bd_simplex(bd_Delta(w_1), ..., bd_Delta(w_q), i_1..i_p)

with the top sphere the join of the children's spheres and bd_simplex(p).
The canonical cellular chain multiplies the children's chains by the usual
boundary-of-polydisc factor (one circle letter per position), through
`CellChain.product`, whose cells are vertex bitmasks (J, I), J the circle
and I the disc letters; it is built and checked to be a cycle once per w
(`_canonical_chain`).

The missing faces of bd_Delta(w) in leaf labels are, recursively, the
sub-brackets' plus every {i_1..i_p, x_1..x_q} with x_j a leaf of w_j
(`canonical_missing_faces`).  A complex on the leaves sits in K exactly
when every missing face of K among the leaves contains one of its missing
faces (`_sits_in`), so "defined" and "trivial" (the trivialising join's
missing faces are the leaf sets of w_1..w_q) need no complex built;
`delta_w` builds bd_Delta(w) for the `delta-w` verb.  Both, and the
paper's criterion (every inner leaf set a missing face of K), are one
answer per (K, w) (`_containment`), which `status`, `realises` and the
closed-form Taylor cycle read.

A (K, w) has one verdict, shown two ways.  `realises_sufficient` reads
it off the canonical cycle.  `nested_shape_status` gives the criterion's
answer where it applies, checked against `realises_sufficient`, and
`realises_sufficient`'s answer everywhere else.

Whether the canonical cycle z bounds in Z_K (`_canonical_bounds`) is
decided by a certificate where one exists, as the paper decides it: a term
of z on a cell that is in no cell's boundary is a one-cell cocycle pairing
z to a nonzero coefficient (`_cocycle_cell`), and the product of the
sub-products' chains with the disc on the bracket's own leaves, where it
lies in Z_K, is a chain whose boundary is +-z (`_trivialising_filling`).
Only where neither exists is z reduced in the star quotients
(`moment_angle._zk_cycle_bounds`, the checks already made).

`parse_whitehead`, `_canonical_chain`, `_containment` and
`_canonical_bounds` are bounded memos: a process parses a bracket text,
builds a canonical chain and decides a (K, w) once while it stays in its
memo, so `status` and `realises` on one pair share a verdict.  A memo
never holds an exception, so a bad input fails again on the next call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import combinations

from . import complexes as cx
from .exactalg import TRIVIAL_GROUP, image_factors
from .moment_angle import (CellChain, _lattice_cells, _require_singletons, _zk_cycle_bounds,
                           degree_sums, fold_blocks)

UNDEFINED = "undefined"
DEFINED_TRIVIAL = "defined-trivial"
DEFINED_NONTRIVIAL = "defined-nontrivial"
DEFINED_UNKNOWN = "defined-unknown"
OUTSIDE_CRITERION = ("outside the paper's criterion: an inner product's leaf set "
                     "is a face of K, so the status is decided as `realises` does")


@dataclass(frozen=True)
class WhiteheadExpr:
    """Leaf(label) when children is empty, otherwise a bracket."""

    label: int = 0
    children: tuple = ()
    _leaves: tuple = field(init=False, compare=False, repr=False)
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        # built bottom-up: the children hold their sorted leaves and hashes already
        object.__setattr__(self, "_leaves", tuple(sorted(
            v for c in self.children for v in c._leaves)) if self.children else (self.label,))
        object.__setattr__(self, "_hash", hash((self.label, self.children)))

    def __hash__(self):
        return self._hash

    @property
    def is_leaf(self):
        return not self.children

    def leaves(self):
        """The leaf labels, sorted."""
        return self._leaves

    def bracket_children(self):
        return tuple(c for c in self.children if not c.is_leaf)

    def leaf_children(self):
        return tuple(c.label for c in self.children if c.is_leaf)

    def is_single(self):
        return not self.is_leaf and all(c.is_leaf for c in self.children)

    def is_nested(self):
        """One sub-bracket per level (a single bracket is nested)."""
        if self.is_leaf:
            return False
        subs = self.bracket_children()
        if not subs:
            return True
        return len(subs) == 1 and subs[0].is_nested()

    def dimension(self):
        if self.is_leaf:
            raise ValueError("a bare coordinate map has no product dimension")
        p = len(self.leaf_children())
        return sum(c.dimension() for c in self.bracket_children()) + 2 * p - 1

    def to_text(self):
        if self.is_leaf:
            return str(self.label)
        return "[" + ",".join(c.to_text() for c in self.children) + "]"

    def __repr__(self):
        return f"WhiteheadExpr({self.to_text()})"


def leaf(v):
    if v < 1:
        raise ValueError("leaf labels must be positive")
    return WhiteheadExpr(label=v)


def bracket(children):
    """Normalised bracket; rejects arity < 2 and repeated leaves."""
    kids = tuple(children)
    if len(kids) < 2:
        raise ValueError("a bracket needs at least two arguments")
    leaf_sets = [c.leaves() for c in kids]
    seen = set()
    for ls in leaf_sets:
        for v in ls:
            if v in seen:
                raise ValueError(f"leaf {v} appears twice")
            seen.add(v)
    order = sorted(range(len(kids)), key=lambda i: (kids[i].is_leaf, leaf_sets[i][0]))
    return WhiteheadExpr(children=tuple(kids[i] for i in order))


@lru_cache(maxsize=128)
def parse_whitehead(text):
    """Nested integer lists: expr := int | '[' expr (',' expr)+ ']'.  A
    bounded memo on the text: the expression is immutable, so every call
    on one text shares it."""
    return cx.read_text(text, _read_whitehead)


def _read_whitehead(sc):
    if not sc.accept("["):
        return leaf(sc.integer())
    kids = sc.items(lambda: _read_whitehead(sc))
    sc.expect("]")
    return bracket(kids)


# -- canonical complexes -------------------------------------------------------

@dataclass(frozen=True)
class DeltaW:
    """Canonical complex, its top sphere (same labels; the sphere may leave
    some vertices unused), and the map from leaf labels to vertices.

    The sphere is None for brackets that mix sub-products with no leaf of
    their own: the join of the children's spheres then outgrows the
    substitution complex and the top-sphere construction does not apply.
    """

    complex: cx.SimplicialComplex
    sphere: cx.SimplicialComplex | None
    leaf_map: dict = field(compare=False)

    def vertex_to_leaf(self):
        return {v: l for l, v in self.leaf_map.items()}


def delta_w(w):
    if w.is_leaf:
        raise ValueError("bare leaves have no canonical complex")
    parts = []
    part_leaf_maps = []
    spheres = []
    for c in w.bracket_children():
        sub = delta_w(c)
        parts.append(sub.complex)
        part_leaf_maps.append(sub.leaf_map)
        spheres.append(sub.sphere)
    p = len(w.leaf_children())
    for l in w.leaf_children():
        parts.append(cx.point())
        part_leaf_maps.append({l: 1})
    sub = cx.substitute(cx.simplex_boundary(len(parts)), parts)
    leaf_map = {}
    for idx, lm in enumerate(part_leaf_maps):
        for l, v in lm.items():
            leaf_map[l] = sub.map_label(idx, v)
    if (spheres and p == 0) or any(s is None for s in spheres):
        return DeltaW(sub.complex, None, leaf_map)
    sphere = None
    for s in spheres:
        sphere = s if sphere is None else cx.join(sphere, s)
    if p:
        leaf_block = cx.simplex_boundary(p)
        sphere = leaf_block if sphere is None else cx.join(sphere, leaf_block)
    if sphere.dimension() != sub.complex.dimension():
        raise AssertionError("top sphere dimension mismatch")
    return DeltaW(sub.complex, sphere, leaf_map)


# -- canonical chains ----------------------------------------------------------

def _leaf_factor(L):
    """The boundary-of-polydisc factor on the leaf bitmask L: one circle
    letter v and the discs L - v, for each bit v of L."""
    out, rest = {}, L
    while rest:
        v = rest & -rest
        rest ^= v
        out[(v, L ^ v)] = 1
    return CellChain(out)


def hurewicz_chain(w, m=None):
    """Canonical cellular chain of an iterated product.

    Recursively the product of the sub-products' chains with the
    one-circle-letter sum over the bracket's own leaves.  Brackets whose
    arguments are all sub-products (no leaves) carry no canonical chain at
    this level and are rejected.
    """
    if w.is_leaf:
        raise ValueError("bare leaves carry no canonical chain")
    if m is not None:
        bad = [v for v in w.leaves() if v > m]
        if bad:
            raise ValueError(f"leaves {bad} outside 1..{m}")
    return _canonical_chain(w)


@lru_cache(maxsize=128)
def _canonical_chain(w):
    """`hurewicz_chain(w)` of a bracket: the `CellChain.product` of the
    sub-products' chains with the leaf factor (`_leaf_factor`).  One per w
    in a process, never changed once built.  The chain is a cycle by
    construction, and it is checked to be one here, once per w, with
    `zk_bounds`' refusal; the leaf bound, and whether the chain lies
    in Z_K, depend on K and are checked by the caller."""
    subs = w.bracket_children()
    leaves_ = w.leaf_children()
    if subs and not leaves_:
        raise ValueError(
            "brackets with sub-products only have no canonical cellular chain")
    factor = _leaf_factor(cx.face_mask(leaves_))
    chain = reduce(CellChain.product, [*map(_canonical_chain, subs), factor])
    if chain.degree != w.dimension():
        raise AssertionError("canonical chain degree mismatch")
    if chain.boundary():
        raise ValueError("chain is not a cycle")
    return chain


# -- realisability criteria ----------------------------------------------------

@lru_cache(maxsize=16)
def _canonical_bounds(K, w):
    """Does w's canonical cycle z bound in Z_K?  One verdict per (K, w) in a
    process: `status` and `realises` on one pair decide it once.  The
    caller has checked that every leaf of w is a vertex of K.

    z is refused first when a cell of it lies outside Z_K, as `zk_bounds`
    refuses it; `_canonical_chain` has checked once per w that z is a
    cycle.  Two certificates then decide it with no Smith form: a term of z
    that lies in no cell's boundary (`_cocycle_cell`) means z does not
    bound, and a filling of z in Z_K (`_trivialising_filling`) means it
    does.  Only where neither exists is z reduced in the star quotients,
    with neither check made again (`moment_angle._zk_cycle_bounds`)."""
    z = hurewicz_chain(w, K.m)
    if not z.supported_in(K):
        raise ValueError("chain has a cell outside Z_K")
    if _cocycle_cell(K, z) is not None:
        return False
    if _trivialising_filling(K, w) is not None:
        return True
    return _zk_cycle_bounds(K, z)


def _cocycle_cell(K, z):
    """A term kappa(J, I) of the cycle z whose disc set I is a facet of K_S,
    S = J + I: I + j is no face of K for any j in J.  The boundary only
    moves a disc letter to the circles, so no cell of Z_K has that term in
    its boundary, and the cochain dual to it is a cocycle.  It pairs with z
    to the term's coefficient, which is nonzero, so z does not bound.  None
    when no term is such a cell."""
    faces = K.face_masks
    for J, I in z.terms:
        if all(I | 1 << (j - 1) not in faces for j in cx.mask_face(J)):
            return J, I
    return None


def _trivialising_filling(K, w):
    """c = z(w_1)...z(w_q).kappa(0, L), over w's sub-products w_j and its
    leaf children L, when every cell of c is in Z_K and its boundary is
    +-z, so that w's canonical cycle z bounds; otherwise None.
    The z(w_j) are cycles and the boundary of kappa(0, L) is the leaf factor
    of z, so the Z_K test is the one that can fail.  For the special shapes
    c lies in Z_K exactly when the trivialising join
    bd(w_1)*...*bd(w_q)*simplex(L) is in K."""
    disc = CellChain({(0, cx.face_mask(w.leaf_children())): 1})
    c = reduce(CellChain.product, [*map(_canonical_chain, w.bracket_children()), disc])
    if not c.supported_in(K):
        return None
    z, boundary = _canonical_chain(w), c.boundary()
    return c if boundary == z or boundary == -z else None


def canonical_missing_faces(w):
    """Missing faces of bd_Delta(w) as leaf-label bitmasks: each
    sub-bracket's, plus, for this bracket, its own leaves together with one
    leaf from each sub-bracket child (every such choice)."""
    if w.is_leaf:
        raise ValueError("bare leaves have no canonical complex")
    out = []
    choices = [cx.face_mask(w.leaf_children())]
    for c in w.bracket_children():
        out.extend(canonical_missing_faces(c))
        choices = [mask | 1 << (v - 1) for mask in choices for v in c.leaves()]
    return tuple(out + choices)


def _sits_in(generators, missing):
    """Does the complex on the leaves with missing faces `generators`
    (bitmasks) sit in K, leaves at themselves?  Exactly when no missing face
    of K among the leaves, `missing`, is one of its faces."""
    return all(any(g & mask == g for g in generators) for mask in missing)


@lru_cache(maxsize=16)
def _containment(K, w):
    """(defined, joined, criterion) of the bracket w on K, one answer per
    (K, w) in a process: does bd_Delta(w) sit in K, does the trivialising
    join, and is every inner leaf set a missing face of K (the paper's
    criterion, `criterion_applies`).  All three are read off one scan, K's
    generators inside w's leaves (`Generators.within`); as no missing face
    holds another, an inner leaf set is a missing face exactly when it is on
    that list.  A leaf past K.m makes all three false."""
    leaves_ = w.leaves()
    if leaves_[-1] > K.m:
        return False, False, False
    gens = K.generators()
    missing = [gens.masks[q - 1] for q in cx.mask_face(gens.within(cx.face_mask(leaves_)))]
    # the inner leaf sets are the missing faces of the trivialising join
    inner = [cx.face_mask(c.leaves()) for c in w.bracket_children()]
    return (_sits_in(canonical_missing_faces(w), missing), _sits_in(inner, missing),
            all(mask in missing for mask in inner))


def single_product_status(K, I):
    """Status of a single product on the vertex list I, the nested shape
    with no w_j (`nested_shape_status`): defined iff the boundary of the
    simplex on I sits in K, trivial iff I itself is a face.  A vertex of I
    outside K leaves it undefined."""
    I = tuple(sorted(set(I)))
    if len(I) < 2:
        raise ValueError("need at least two distinct vertices")
    return nested_shape_status(K, bracket([leaf(v) for v in I]))


def criterion_applies(K, w):
    """Is every inner leaf set of [w_1,...,w_q, leaves] a missing face of K
    (its boundary sits in K, its simplex does not), so that each w_j is a
    nontrivial single product?  The paper proves the nested criterion for
    those only.  False when a leaf is no vertex of K (`_containment`)."""
    return _containment(K, w)[2]


def nested_shape_status(K, w):
    """Exact status for products [w_1,...,w_q, leaves] with single w_j, a
    single product being the one with q = 0: defined iff K contains the
    canonical complex, trivial iff K contains the trivialising join.

    The trivial/nontrivial part holds where `criterion_applies`, and there
    `realises_sufficient` is checked against it.  Outside it the status is
    `realises_sufficient`'s verdict: nontrivial, trivial or
    DEFINED_UNKNOWN."""
    subs = w.bracket_children()
    if w.is_leaf or any(not c.is_single() for c in subs):
        raise ValueError(
            "expected the shape [w_1,...,w_q, leaves] with single-product w_j")
    defined, joined, criterion = _containment(K, w)
    if not defined:
        return UNDEFINED
    if not criterion:
        return {"yes": DEFINED_NONTRIVIAL, "no": DEFINED_TRIVIAL}.get(
            realises_sufficient(K, w).nontrivial, DEFINED_UNKNOWN)
    if w.leaf_children() and (subs or not joined):   # a trivial single product spans a face
        realised = realises_sufficient(K, w).nontrivial == "yes"
        if joined and realised:
            raise AssertionError("trivial product with a nonzero canonical class")
        if not joined and not realised:
            raise AssertionError("nontrivial product with a bounding canonical class")
    return DEFINED_TRIVIAL if joined else DEFINED_NONTRIVIAL


@dataclass(frozen=True)
class RealisationReport:
    defined: str          # yes / no / unknown-sufficient-only
    nontrivial: str       # yes / no / unknown
    witness: CellChain | None
    notes: tuple = ()


def realises_sufficient(K, w):
    """Sufficient realisability test for a general expression.

    The canonical complex embeds with leaves fixed pointwise; when it does,
    the canonical cycle decides nontriviality whenever its class is nonzero.
    The converse is open in general, so a vanishing class is only reported
    as definite when an exact criterion applies.
    """
    if w.is_leaf:
        raise ValueError("bare leaves are not products")
    special = all(c.is_single() for c in w.bracket_children())
    defined, joined, _ = _containment(K, w)
    if not defined:
        if special:
            return RealisationReport(
                "no", "no", None, ("smallest-complex criterion applies: not defined",))
        return RealisationReport("unknown-sufficient-only", "unknown", None,
                                 ("canonical complex does not embed; converse is open",))
    notes = []
    full = not K.missing_faces()
    try:
        chain = hurewicz_chain(w, K.m)
    except ValueError as exc:
        notes.append(str(exc))
        chain = None
    if chain is not None:
        if not _canonical_bounds(K, w):
            return RealisationReport("yes", "yes", chain)
        notes.append("canonical class vanishes")
    nontrivial = "unknown"
    if full:
        nontrivial = "no"
        notes.append("K is the full simplex; Z_K is contractible")
    elif special and joined:
        nontrivial = "no"
        notes.append("trivialising join is a subcomplex")
    return RealisationReport("yes", nontrivial, None, tuple(notes))


# -- wedge bases for shifted and fillable complexes ------------------------------

@dataclass(frozen=True)
class WedgeEntry:
    subset: tuple
    missing_face: tuple
    expr: WhiteheadExpr
    chain: CellChain


@dataclass(frozen=True)
class WedgeBasis:
    entries: tuple
    is_basis: bool
    homology: dict = field(compare=False)
    details: tuple = ()


def _wedge_entry(J, I):
    """The entry of [[...[[mu_I], mu_j1]...], mu_jq] over J - I, ascending."""
    expr = bracket([leaf(v) for v in I])
    for j in J:
        if j not in I:
            expr = bracket([expr, leaf(j)])
    return WedgeEntry(J, I, expr, hurewicz_chain(expr))


def _basis_verdict(K, entries):
    """Do the entries' chains form a Z-basis of H_*(Z_K)?  Checked per
    (support, degree) block, where an entry's chain lies by its support, on
    one [B | Z] of the entries' circle masks (`exactalg.image_factors`);
    each lattice support's star cells are built once, for that and the
    groups.  The details name and order the blocks by their labels."""
    cells = dict(_lattice_cells(K))
    per_block = fold_blocks(((smask, 1, words) for smask, words in cells.items()),
                            by_support=True)
    by_block = {}
    for e in entries:
        by_block.setdefault((e.chain.support(), e.chain.degree), []).append(
            {circles: c for (circles, _), c in e.chain.terms.items()})
    details = []
    ok = True
    for smask, d in sorted({k for k in per_block if k[1] > 0} | set(by_block),
                           key=lambda k: (cx.mask_face(k[0]), k[1])):
        where = f"subset {list(cx.mask_face(smask))}, degree {d}"
        group = per_block.get((smask, d), TRIVIAL_GROUP)
        if group.torsion:
            ok = False
            details.append(f"{where}: torsion {group.torsion} present")
            continue
        chains = by_block.get((smask, d), [])
        if len(chains) != group.rank:
            ok = False
            details.append(f"{where}: {len(chains)} chains against rank {group.rank}")
            continue
        image, with_z = image_factors(cells[smask], smask, 2 * smask.bit_count() - d, chains)
        facs = with_z[len(image):]
        if len(facs) != group.rank or any(f != 1 for f in facs):
            ok = False
            details.append(f"{where}: invariant factors {facs}")
    return WedgeBasis(tuple(entries), ok, degree_sums(per_block), tuple(details))


def shifted_wedge_basis(K, order=None):
    """Whitehead wedge basis of a shifted complex.

    For every vertex subset J, each missing face I of K_J containing the
    order-maximal vertex of J contributes the nested product
    [[...[[mu_I], mu_j1]...], mu_jq] over J - I; the verdict certifies the
    emitted chains as a Z-basis of H_*(Z_K).  Those pairs are read off the
    missing faces of K: J is I together with any set of vertices ranked
    below I's top vertex, and the entries come sorted by (|J|, J, |I|, I).
    A ghost vertex is refused first, as by the other Z_K routes.
    """
    _require_singletons(K)
    res = cx.is_shifted(K, order)
    if not res:
        raise ValueError("K is not shifted" if order is None
                         else "K is not shifted for the given order")
    witness = res.witnesses[0]
    rank = {v: i for i, v in enumerate(witness)}
    pairs = []
    for I in K.missing_faces():
        below = [v for v in witness[:max(map(rank.get, I))] if v not in I]
        for k in range(len(below) + 1):
            pairs.extend((tuple(sorted(I + T)), I) for T in combinations(below, k))
    pairs.sort(key=lambda p: (len(p[0]), p[0], len(p[1]), p[1]))
    return _basis_verdict(K, [_wedge_entry(J, I) for J, I in pairs])


def fillable_wedge_basis(K, fillings):
    """Wedge basis from fillings: fillings maps a subset J to missing faces
    of K_J whose addition makes K_J acyclic over the integers (the computable
    stand-in for contractibility; certified only at homology level)."""
    fillings = {tuple(sorted(J)): tuple(cx.face(f) for f in fs)
                for J, fs in fillings.items()}
    entries = []
    for k in range(1, K.m + 1):
        for J in combinations(range(1, K.m + 1), k):
            fill = fillings.get(J, ())
            mfs = set(K.missing_faces_within(J))
            for f in fill:
                if f not in mfs:
                    raise ValueError(f"{f} is not a missing face of K_{J}")
            filled = list(K.faces_within(J)) + list(fill)
            if not cx.is_acyclic(filled):
                raise ValueError(
                    f"filling for J={J} is not acyclic over the integers")
            entries.extend(_wedge_entry(J, I) for I in fill)
    return _basis_verdict(K, entries)
