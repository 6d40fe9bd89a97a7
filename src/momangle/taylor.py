"""Taylor resolutions of monomial ideals and the Taylor complex of a face
coalgebra.

Two flavours live here.  The module version resolves a monomial quotient
ring: free summands indexed by subsets of the generators, differential
weighted by lcm quotients.  The face version is its comodule dual: after
cotensoring away the coalgebra it is a finite complex with basis the
exterior monomials w_{J_1} ^ ... ^ w_{J_s} over distinct missing faces,

    d(w_{J_1} ^ ... ^ w_{J_s}) = sum over missing faces J inside the union,
                                 J not among the J_i, of
                                 w_J ^ w_{J_1} ^ ... ^ w_{J_s},

the new factor entering at the front and the word then being sorted back
into the fixed generator order (cardinality first, then lexicographic).
Every word here is the bitmask of its generator indices on K's
`complexes.Generators` table (`within(S)` the generators inside S), so
generator bit b enters word x as x | b with sign (-1)^popcount(x & (b - 1))
and no word is ever sorted: a chain's differential is the package's one
chain insertion, `exactalg.insert_bits`, and a complex's columns its one
column builder, `insertion_columns`.  The differential keeps the union of a
word, so the complex splits over vertex subsets S, and a word with s
factors sits in total degree 2|S| - s.

The route reads Lyubeznik's words only (`admissible_words`): F_{i_1} ^ ...
^ F_{i_s} (i_1 < ... < i_s) is admissible when no generator F_q with q <
i_t lies inside F_{i_t} u ... u F_{i_s}, for every t.  They span a
subcomplex of the module resolution that still resolves the ideal, over
any ring (Lyubeznik, J. Pure Appl. Algebra 51, 1988; Batzies-Welker,
J. reine angew. Math. 543, 2002, by an acyclic Morse matching); dually the
other words span an acyclic subcomplex of the face complex, closed under
insertion, and the admissible words carry the quotient with the same
homology over Z, torsion included.

A block is a union's admissible words, (union, words) on index bitmasks,
an item of `admissible_words`, with the generators inside the union as the
bits that may enter.  The per-support table (`taylor_homology_by_support`)
is the cellular tables' fold over the blocks (`moment_angle.fold_blocks`).
The degree table of `taylor` (`taylor_homology`) reads one complex per
shift 2|S|: a block in one degree adds its words to that degree's rank, and the
other blocks of a shift are read together, their direct sum.  Whether a
cycle bounds is read off a block's columns (`taylor_cycle_is_boundary`);
`taylor_components` labels them with the words for the tests' classes,
whose reference is `oracles.reference_taylor_components`.

A Taylor chain (`TaylorChain`) holds K's `Generators` and its words:
`taylor_boundary` and the whole complex (`taylor_face_complex`) are
`index_boundary` on them, and the closed form of nested products
(`nested_taylor_cycle`) grows its words by the same insertion, one call
per level, a cycle by an exact rule of its own.  Labels are written and
read only in a chain's text, where the reader's `^` moves one word's bits
past the other's (`exactalg.concatenation_sign`).  Lyubeznik's theorem
itself is checked on the same builder, one slice of the lcm lattice at a
time (`verify_taylor_is_resolution`, over `mask_unions`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import accumulate, combinations

from .complexes import (SIGNS, Generators, ParseError, SignedSum, SimplicialComplex,
                        SizeLimitError, face, face_mask, mask_face, read_signed_sum, read_text,
                        read_word, signed_sum_text)
from .exactalg import (ChainComplex, column_homology, concatenation_sign, insert_bits,
                       insertion_columns, insertion_complex)
from .moment_angle import _add_group, _groups, _is_mask, bounds_by_support, fold_blocks
from .whitehead import _containment

MAX_GENERATORS = 20


class TaylorChain(SignedSum):
    """Sparse integer sum of exterior monomials over K's missing faces:
    `terms` {word: coeff}, each word the bitmask of its generator indices on
    K's `Generators` `gens` (bit q for the q-th missing face), so its
    factors are in generator order as they stand.  Labels are written only
    in its text (`to_text`, `from_text`).  Chains over two generator tables
    are never equal and do not add.

    The factor count s is uniform across terms; finished cycles are also
    uniform in union size (so the total degree 2|union| - s is defined), but
    partial products built factor by factor need not be yet.
    """

    __slots__ = ("gens", "s")

    def __init__(self, gens, terms):
        self.gens, self.terms, s = gens, {}, None
        for word, c in terms.items():
            if not c:
                continue
            if not _is_mask(word) or word & ~gens.every:
                raise ValueError(f"word {word!r} is no bitmask of K's generator indices")
            if s is None:
                s = word.bit_count()
            elif word.bit_count() != s:
                raise ValueError("Taylor chain mixes factor counts")
            self.terms[word] = int(c)
        self.s = s or 0

    def _like(self, terms):
        return TaylorChain(self.gens, terms)

    def __eq__(self, other):
        return super().__eq__(other) and self.gens.masks == other.gens.masks

    __hash__ = SignedSum.__hash__

    def __add__(self, other):
        if self.gens.masks != other.gens.masks:
            raise ValueError("Taylor chains over different generator tables")
        return super().__add__(other)

    @property
    def union_size(self):
        sizes = {self.gens.union(w).bit_count() for w in self.terms} or {0}
        if len(sizes) > 1:
            raise ValueError("chain is not homogeneous in union size")
        return sizes.pop()

    @property
    def degree(self):
        return 2 * self.union_size - self.s

    def to_text(self):
        """Canonical text: words fully expanded with factors in descending
        generator order (so `w245^w145`, not `-w145^w245`), in the
        lexicographic order of their generator index tuples, each word's key
        its indices as digits of the table's bit width (every word has s)."""
        names = ["w" + name for name in self.gens.names]
        width, rows = len(names).bit_length(), []
        flip = -1 if self.s * (self.s - 1) // 2 % 2 else 1
        for word, c in self.terms.items():
            factors, key, rest = [], 0, word
            while rest:
                low = rest & -rest
                rest ^= low
                q = low.bit_length() - 1
                key = key << width | q
                factors.append(names[q])
            rows.append((key, SIGNS[flip * c] + ("^".join(reversed(factors)) or "1")))
        return signed_sum_text(rows)

    @classmethod
    def from_text(cls, K, text):
        """Parse sums of ^-products over K's missing faces; parenthesised
        sums distribute, e.g. `(w145+w245+w345)^w123`."""
        gens = K.generators()
        return read_text(text, lambda sc: read_signed_sum(
            sc, lambda sc: _read_taylor_term(sc, gens), cls(gens, {})))


def _read_taylor_term(sc, gens):
    """`atom {'^' atom}` with atom := '1' | 'w' WORD | '(' signed sum ')'."""
    return reduce(_wedge, sc.items(lambda: _read_taylor_atom(sc, gens), "^"))


def _read_taylor_atom(sc, gens):
    if sc.accept("("):
        inner = read_signed_sum(sc, lambda sc: _read_taylor_term(sc, gens),
                                TaylorChain(gens, {}), stop=")")
        sc.expect(")")
        return inner
    if sc.accept("1"):
        return TaylorChain(gens, {0: 1})
    sc.peek()
    pos = sc.pos
    sc.expect("w")
    labels = read_word(sc)
    try:
        return TaylorChain(gens, {gens.word((face(labels),)): 1})
    except ValueError as exc:
        raise ParseError(str(exc), pos) from None


def _wedge(a, b):
    """The exterior product of two chains on one table: words that share a
    generator vanish, and a's word moves past b's bits below it
    (`concatenation_sign`)."""
    out = {}
    for w1, c1 in a.terms.items():
        for w2, c2 in b.terms.items():
            if not w1 & w2:
                out[w1 | w2] = out.get(w1 | w2, 0) + concatenation_sign(w1, w2) * c1 * c2
    return a._like(out)


# -- the face (comodule) Taylor complex ------------------------------------------

def index_boundary(chain, gens):
    """Differential of {word: coeff} on the `Generators` gens: the
    generators inside a word's union (`within`) enter it by
    `exactalg.insert_bits`.  The words are grouped by their union, so each
    union's inside bits are read once and one insertion serves its group.
    Zero coefficients are dropped."""
    groups = {}
    for word, c in chain.items():
        groups.setdefault(gens.union(word), {})[word] = c
    out = {}
    for union, words in groups.items():
        insert_bits(words, gens.within(union), out)
    return {word: c for word, c in out.items() if c}


def taylor_boundary(K, chain):
    """Differential of a Taylor chain of K, `index_boundary` on its words;
    a chain over another generator table is refused."""
    gens = K.generators()
    if chain.gens.masks != gens.masks:
        raise ValueError("chain is not written on K's missing faces")
    return TaylorChain(gens, index_boundary(chain.terms, gens))


def _checked_generators(K):
    gens = K.generators()
    _refuse_past_bound(len(gens.masks))
    return gens


def _refuse_past_bound(count):
    if count > MAX_GENERATORS:
        raise SizeLimitError(f"|MF(K)|={count} exceeds the Taylor bound {MAX_GENERATORS}")


def taylor_face_complex(K):
    """The whole Taylor complex of the face coalgebra as one ChainComplex,
    the reference the blocks of `taylor_components` are tested against.

    Basis at degree -s: all words of s distinct missing faces, admissible or
    not, as index bitmasks in the lexicographic order of their index tuples.
    The grading by union subsets is implicit (the differential preserves
    it); the differential is `taylor_boundary`'s, `index_boundary` with the
    generators read once."""
    gens = _checked_generators(K)
    bits = [1 << q for q in range(len(gens.masks))]
    basis = {-s: [sum(c) for c in combinations(bits, s)] for s in range(len(bits) + 1)}
    return ChainComplex.from_boundary(basis, lambda w: index_boundary({w: 1}, gens))


def admissible_words(gens):
    """Lyubeznik's admissible words of the `Generators` gens as bitmasks of
    generator indices, {union mask: words}, each union's by factor count,
    then lexicographically in their index tuples.

    Words grow right to left, one factor count per layer: generator j goes
    in front of an admissible word w (j below w's lowest index) when no
    generator before j lies inside the new union; its suffixes are w's, so
    it is admissible, and every admissible word grows from its own suffix.
    A layer is ordered by lowest index, so the words j may go in front of
    are a suffix of it, and the next layer comes out ordered by j, then by
    the position of w, with no sort."""
    masks = gens.masks
    by_union = {0: [0]}
    layer = [(i, 1 << i, mask) for i, mask in enumerate(masks)]
    while layer:
        grown, start = [], 0
        for _, word, union in layer:
            by_union.setdefault(union, []).append(word)
        for j, mask in enumerate(masks[:layer[-1][0]]):
            while layer[start][0] <= j:
                start += 1
            below, bit = masks[:j], 1 << j
            for _, word, union in layer[start:]:
                new = union | mask
                for lower in below:
                    if lower | new == new:
                        break
                else:
                    grown.append((j, word | bit, new))
        layer = grown
    return by_union


@lru_cache(maxsize=8)
def taylor_components(K):
    """Per-subset split on the admissible words: the vertex bitmask of S ->
    ChainComplex of the admissible words with union exactly S, the labelled
    blocks the tests class Taylor cycles in; no verb builds them.

    Each block is the insertion columns of a union's admissible words with
    the index bitmasks as its basis (`insertion_complex`): the full block
    with the words that are not admissible left out, and the targets that
    are not admissible dropped, its quotient by an acyclic subcomplex.  A union that carries
    no admissible word has no block; its full block is acyclic."""
    gens = _checked_generators(K)
    return {union: insertion_complex(words, gens.within(union), int)
            for union, words in admissible_words(gens).items()}


def taylor_homology_by_support(K):
    """Homology of every component, {(S, 2|S| - s): group}, nontrivial only:
    `fold_blocks` on the blocks (`admissible_words`), with the generators
    inside a union (`within`) as the bits that may enter, as it reads the
    cellular table's; a block's columns are those of `taylor_components`'
    block."""
    gens = _checked_generators(K)
    return fold_blocks(admissible_words(gens).items(), gens.within)


def taylor_homology(K):
    """Homology of Z_K via the Taylor complex, total degree 2|S| - s.  A
    block whose first and last words have one factor count is Z^(its words)
    in one degree, with no column and no `within` built.  The other blocks
    of a shift 2|S| are one complex, their words concatenated and the
    generators inside their unions OR'd: a generator outside a word's union
    enlarges it, into a larger shift, and a word fixes its union, so the
    complex is the blocks' direct sum, read by one `column_homology`."""
    gens = _checked_generators(K)
    ranks, torsion, words_at, inside_at = {}, {}, {}, {}
    for union, words in admissible_words(gens).items():
        shift = 2 * union.bit_count()
        if (s := words[0].bit_count()) == words[-1].bit_count():
            ranks[shift - s] = ranks.get(shift - s, 0) + len(words)
        else:
            words_at.setdefault(shift, []).extend(words)
            inside_at[shift] = inside_at.get(shift, 0) | gens.within(union)
    for shift, words in words_at.items():
        for d, h in column_homology(*insertion_columns(words, inside_at[shift])).items():
            _add_group(ranks, torsion, shift + d, h.rank, h.torsion, 1)
    return _groups(ranks, torsion, sorted(ranks))


def taylor_cycle_is_boundary(K, chain):
    """Does the Taylor cycle `chain` bound?  `bounds_by_support` on the
    blocks of admissible words, the generators inside a union as the bits
    that may enter; a union with no admissible word has an acyclic block.
    A chain over another generator table, even an empty one, and a
    non-cycle are refused (`taylor_boundary`), then K past the Taylor gate."""
    if taylor_boundary(K, chain):
        raise ValueError("chain is not a cycle")
    if not chain:
        return True
    gens = _checked_generators(K)
    by_union = admissible_words(gens)
    return bounds_by_support(
        lambda union: (by_union[union], gens.within(union)) if union in by_union else None,
        lambda word: (gens.union(word), word), chain.terms)


# -- the canonical nested-product cycle -------------------------------------------

def nested_levels(w):
    """Leaf sets level by level, innermost first."""
    if not w.is_nested():
        raise ValueError("expression is not nested")
    levels = []
    node = w
    while not node.is_leaf:
        levels.append(tuple(sorted(node.leaf_children())))
        subs = node.bracket_children()
        node = subs[0] if subs else None
        if node is None:
            break
    return tuple(reversed(levels))


def nested_taylor_cycle(w, K):
    """Closed-form Taylor cycle of a nested product, on generator index
    bitmasks.  With L_1, ..., L_n the leaf sets level by level, innermost
    first, factor k is f_k, the sum of the generators F with F - (L_1 + ...
    + L_{k-1}) = L_k; the innermost factor is the generator L_1.  The chain
    P = f_n ^ ... ^ f_1 is grown innermost first, one `insert_bits` call per
    level: each factor enters every word at the front and moves to its place
    in generator order.

    Every word has the union L = L_1 + ... + L_n, so the differential wedges
    P with g, the sum of the generators inside L, by the same insertion
    (`index_boundary`).  The factors use disjoint generators and f_k ^ f_k =
    0, so d(P) = r ^ P, r the sum of the generators inside L that are in no
    factor; P is a nonzero decomposable product and r shares no generator
    with it, so P is a cycle exactly when r = 0.  A generator inside L whose
    highest level is k lies in factor k exactly when it contains L_k.  So
    the factor rule, every generator inside L contains the whole of its
    highest level, is the exact cycle check, made before any word is built;
    the words are not walked again.  Refused (ValueError) when w is not
    nested, when bd_Delta(w) does not sit in K (the product is not defined
    there), when a level matches no generator, or when a generator breaks
    that rule."""
    levels = nested_levels(w)
    if not _containment(K, w)[0]:
        raise ValueError(f"bd_Delta({w.to_text()}) does not sit in K: the product is not defined")
    gens = K.generators()
    masks = gens.masks
    # K's missing faces among the leaves are the generators inside them
    inside = [v - 1 for v in mask_face(gens.within(face_mask(w.leaves())))]
    level_masks = [face_mask(level) for level in levels]
    hits, absorbed = [], 0
    for target in level_masks:
        hits.append(sum(1 << q for q, mask in enumerate(masks) if mask & ~absorbed == target))
        absorbed |= target
    for i in reversed(range(len(levels))):
        if not hits[i]:
            raise ValueError(f"no missing face matches level {i + 1} leaves {levels[i]}")
    for q in inside:
        top = max(i for i, level in enumerate(level_masks) if masks[q] & level)
        if level_masks[top] & ~masks[q]:
            raise ValueError(f"the closed form of {w.to_text()} is no cycle of K: the "
                             f"missing face {gens.faces[q]} meets the level {top + 1} leaves "
                             f"{levels[top]} without containing them")
    words = {0: 1}
    for bits in hits:
        words = insert_bits(words, bits)
    return TaylorChain(gens, words)


# -- monomial ideals and Lyubeznik's resolution on the lcm lattice -------------------

def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


@dataclass(frozen=True)
class MonomialIdeal:
    """Minimal monomial generators as exponent vectors of length m."""

    m: int
    gens: tuple

    def __post_init__(self):
        gens = tuple(tuple(int(x) for x in g) for g in self.gens)
        object.__setattr__(self, "gens", gens)
        for g in gens:
            if len(g) != self.m or any(x < 0 for x in g) or not any(g):
                raise ValueError(f"bad exponent vector {g}")
        if len(set(gens)) != len(gens):
            raise ValueError("generators must be distinct")
        for a in gens:
            for b in gens:
                if a != b and _divides(a, b):
                    raise ValueError(f"{a} divides {b}: generators not minimal")

    @classmethod
    def squarefree(cls, m, supports):
        gens = []
        for sup in supports:
            sup = face(sup)
            gens.append(tuple(1 if v + 1 in set(sup) else 0 for v in range(m)))
        return cls(m, tuple(gens))

    @classmethod
    def stanley_reisner(cls, K):
        return cls.squarefree(K.m, K.missing_faces())

    def complex(self):
        """The simplicial complex whose missing faces are the generators."""
        if any(x > 1 for g in self.gens for x in g):
            raise ValueError("only square-free ideals cut out a complex")
        sups = [frozenset(i + 1 for i, x in enumerate(g) if x) for g in self.gens]
        faces_ = []
        for k in range(self.m + 1):
            for cand in combinations(range(1, self.m + 1), k):
                if not any(s <= set(cand) for s in sups):
                    faces_.append(cand)
        return SimplicialComplex(self.m, faces_)

    def masks(self):
        """The generators polarised into bitmasks: variable v gets a run of
        as many bits as its largest exponent, and exponent e sets the first
        e of them, so lcm is OR and divisibility is containment."""
        widths = [max((g[v] for g in self.gens), default=0) for v in range(self.m)]
        starts = list(accumulate(widths, initial=0))
        return [sum(((1 << e) - 1) << at for e, at in zip(g, starts)) for g in self.gens]


def mask_unions(masks):
    """Every nonempty union of the bitmasks `masks`, as a set, by closure
    level by level, len(masks) ORs per union: the lcm lattice of polarised
    monomials, and the unions of K's missing faces for `verify`'s check."""
    unions, level = set(), {0}
    while level:
        level = {u | g for u in level for g in masks} - unions
        unions |= level
    return unions


@dataclass(frozen=True)
class ResolutionReport:
    module_exact: bool
    failures: tuple

    def ok(self):
        return self.module_exact


def verify_taylor_is_resolution(ideal):
    """Exactness of Lyubeznik's resolution of S/ideal, on polarised masks.

    For each nonzero U of the lcm lattice, the unions of generator masks
    (`mask_unions`), the admissible words with union
    inside U, the empty word included, span its slice; `insertion_columns`
    gives their insertion columns, the dual of the deletion differential,
    and a finite free complex over Z is exact exactly when its dual is, so
    every group `column_homology` reads must vanish.  Any other multidegree
    has the slice of the lcm of the generators dividing it, or Z in degree
    0 when none does.  A failure is (the generators inside U, word length,
    group)."""
    gens = Generators(None, ideal.masks())
    _refuse_past_bound(len(gens.masks))
    by_union = admissible_words(gens)
    failures = []
    for U in sorted(mask_unions(gens.masks)):
        words = [word for union, ws in by_union.items() if not union & ~U for word in ws]
        inside = gens.within(U)
        groups = column_homology(*insertion_columns(words, inside))
        failures += [(tuple(v - 1 for v in mask_face(inside)), -d, str(h))
                     for d, h in groups.items()]
    return ResolutionReport(not failures, tuple(failures))
