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
Basis words keep their factors in that order, so a new factor J lands at
position p, the number of factors before it in generator order, with sign
(-1)^p; no word is ever sorted (`insertions`).  The differential never
changes the union of the word, so the complex splits over vertex subsets S,
and a word with s factors sits in total degree 2|S| - s.

The route computes per block on Lyubeznik's words only (`admissible_words`).
A word F_{i_1} ^ ... ^ F_{i_s} (i_1 < ... < i_s) is admissible when no
generator F_q with q < i_t lies inside F_{i_t} u ... u F_{i_s}, for every t.
The admissible words span a subcomplex of the module resolution that still
resolves the ideal, over any ring (Lyubeznik, J. Pure Appl. Algebra 51,
1988; Batzies-Welker, J. reine angew. Math. 543, 2002, by an acyclic Morse
matching).  Dually, the other words span an acyclic subcomplex of the face
complex, closed under insertion, and the admissible words carry the quotient
with the same homology over Z, torsion included.

The homology table (`taylor_homology_by_support`) keeps each admissible word
as a bitmask of generator indices: generator bit b enters word x as x | b
with sign (-1)^popcount(x & (b - 1)), and `column_homology` reads each
block's groups from those columns, with no labelled complex built.  Cycle
classes use the labelled blocks (`taylor_components`), the table's in-tree
reference; the whole complex (`taylor_face_complex`) is the tests'.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations, product

from .complexes import (SimplicialComplex, SizeLimitError, face, face_mask,
                        read_signed_sum, read_text, read_word, signed_sum_text,
                        word_text)
from .exactalg import ChainComplex, column_homology
from .moment_angle import class_by_support, degree_sums

MAX_GENERATORS = 20


def gen_key(f):
    return (len(f), f)


def mf_order(K):
    """Missing faces in the fixed generator order, which is the order
    `missing_faces` already returns them in."""
    return K.missing_faces()


def normalise_word(faces_):
    """Sort an exterior word into generator order; None when a factor repeats."""
    word = list(faces_)
    sign = 1
    for i in range(1, len(word)):
        j = i
        while j and gen_key(word[j - 1]) > gen_key(word[j]):
            word[j - 1], word[j] = word[j], word[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(word, word[1:]):
        if a == b:
            return None, 0
    return tuple(word), sign


class TaylorChain:
    """Sparse integer sum of exterior monomials over missing faces.

    The factor count s is uniform across terms; finished cycles are also
    uniform in union size (so the total degree 2|union| - s is defined), but
    partial products built factor by factor need not be yet.
    """

    __slots__ = ("terms", "s")

    def __init__(self, terms):
        self.terms = {}
        self.s = None
        for word, c in terms.items():
            if not c:
                continue
            word, sign = normalise_word(tuple(face(f) for f in word))
            if word is None:
                raise ValueError("repeated factor in exterior word")
            if self.s is None:
                self.s = len(word)
            elif len(word) != self.s:
                raise ValueError("Taylor chain mixes factor counts")
            self.terms[word] = self.terms.get(word, 0) + sign * int(c)
        self.terms = {w: c for w, c in self.terms.items() if c}
        if not self.terms:
            self.s = self.s or 0

    @classmethod
    def zero(cls):
        return cls({})

    @property
    def union_size(self):
        sizes = {len(set().union(*w)) if w else 0 for w in self.terms} or {0}
        if len(sizes) > 1:
            raise ValueError("chain is not homogeneous in union size")
        return sizes.pop()

    @property
    def degree(self):
        return 2 * self.union_size - self.s

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, TaylorChain) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __neg__(self):
        return TaylorChain({w: -c for w, c in self.terms.items()})

    def __add__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return TaylorChain(out)

    def __sub__(self, other):
        return self + (-other)

    def wedge(self, other):
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                word, sign = normalise_word(w1 + w2)
                if word is None:
                    continue
                out[word] = out.get(word, 0) + sign * c1 * c2
        return TaylorChain(out)

    def scaled(self, k):
        return TaylorChain({w: k * c for w, c in self.terms.items()})

    def to_text(self):
        """Canonical text: words fully expanded with factors in descending
        generator order (so `w245^w145`, not `-w145^w245`)."""
        return signed_sum_text(
            ("^".join("w" + word_text(f) for f in reversed(word)),
             -c if (len(word) * (len(word) - 1) // 2) % 2 else c)
            for word, c in sorted(self.terms.items(),
                                  key=lambda t: tuple(map(gen_key, t[0]))))

    @classmethod
    def from_text(cls, text):
        """Parse sums of ^-products; parenthesised sums distribute, e.g.
        `(w145+w245+w345)^w123`."""
        return read_text(text, lambda sc: read_signed_sum(sc, _read_taylor_term, cls.zero()))

    def __repr__(self):
        return f"TaylorChain({self.to_text()})"


def _read_taylor_term(sc):
    """`atom {'^' atom}` with atom := '1' | 'w' WORD | '(' signed sum ')'."""
    return reduce(TaylorChain.wedge, sc.items(lambda: _read_taylor_atom(sc), "^"))


def _read_taylor_atom(sc):
    if sc.accept("("):
        inner = read_signed_sum(sc, _read_taylor_term, TaylorChain.zero(), stop=")")
        sc.expect(")")
        return inner
    if sc.accept("1"):
        return TaylorChain({(): 1})
    sc.expect("w")
    return TaylorChain({(read_word(sc),): 1})


# -- the face (comodule) Taylor complex ------------------------------------------

def insertions(word, gens, masks, within):
    """The terms the Taylor differential adds to a basis word (factors in
    generator order): each generator F of `gens` outside the word whose
    bitmask (from `masks`) lies inside the bitmask `within` enters at
    position p, the number of factors before it in generator order, with sign
    (-1)^p.  Yields (F, new word, sign)."""
    p, n = 0, len(word)
    for F, mask in zip(gens, masks):
        if p < n and word[p] == F:
            p += 1
        elif not mask & ~within:
            yield F, word[:p] + (F,) + word[p:], -1 if p % 2 else 1


def word_boundary(word, gens, masks, union):
    """Differential of a basis word whose factors cover the bitmask `union`."""
    return {new: sign for _, new, sign in insertions(word, gens, masks, union)}


def generator_masks(K):
    """The generators in order with their vertex bitmasks."""
    gens = mf_order(K)
    return gens, [face_mask(F) for F in gens]


def union_mask(word):
    """Vertex bitmask of the union of a word's factors."""
    return face_mask(v for F in word for v in F)


def taylor_boundary_word(K, word):
    """Differential of one basis word (factors in generator order) as
    {word: coeff}."""
    return word_boundary(word, *generator_masks(K), union_mask(word))


def taylor_boundary(K, chain):
    """Differential of a Taylor chain; factors must be missing faces of K."""
    gens, masks = generator_masks(K)
    known = set(gens)
    out = {}
    for word, c in chain.terms.items():
        if not known.issuperset(word):
            raise ValueError(f"factors {sorted(set(word) - known)} are not missing faces of K")
        for tgt, s in word_boundary(word, gens, masks, union_mask(word)).items():
            out[tgt] = out.get(tgt, 0) + c * s
    return TaylorChain(out)


def _checked_generators(K):
    gens, masks = generator_masks(K)
    if len(gens) > MAX_GENERATORS:
        raise SizeLimitError(
            f"|MF(K)|={len(gens)} exceeds the Taylor bound {MAX_GENERATORS}")
    return gens, masks


def taylor_face_complex(K):
    """The whole Taylor complex of the face coalgebra as one ChainComplex,
    the reference the blocks of `taylor_components` are tested against.

    Basis at degree -s: all words of s distinct missing faces, admissible or
    not.  The grading by union subsets is implicit (the differential
    preserves it)."""
    gens, masks = _checked_generators(K)
    basis = {-s: list(combinations(gens, s)) for s in range(len(gens) + 1)}
    return ChainComplex.from_boundary(
        basis, lambda w: word_boundary(w, gens, masks, union_mask(w)))


def word_support(word):
    """The union S of the factors of an exterior word, sorted."""
    return tuple(sorted(set().union(*word)))


def admissible_words(masks):
    """Lyubeznik's admissible words as bitmasks of generator indices (bit i
    for the generator with vertex bitmask masks[i]), {union mask: words}.

    Words are grown right to left: generator j is put in front of an
    admissible word w (j below w's lowest index) when no generator before j
    lies inside the new union.  The suffixes of the new word are w's, so the
    new word is admissible, and every admissible word is reached this way
    from its own suffix.  The words of a union come by factor count, and
    within one count lexicographically in their index tuples: a layer's
    words are ordered by their new front index j, then by the position of
    the word they grew from in the layer before."""
    first_inside = {}

    def first(union):
        if union not in first_inside:
            first_inside[union] = next(q for q, mask in enumerate(masks)
                                       if not mask & ~union)
        return first_inside[union]

    by_union = {0: [0]}
    layer = [(1 << i, mask) for i, mask in enumerate(masks)]
    while layer:
        grown = []
        for k, (word, union) in enumerate(layer):
            by_union.setdefault(union, []).append(word)
            for j in range((word & -word).bit_length() - 1):
                new = union | masks[j]
                if first(new) == j:
                    grown.append((j, k, word | 1 << j, new))
        grown.sort()
        layer = [(word, union) for _, _, word, union in grown]
    return by_union


def _union_support(K, union):
    """The vertices of a union bitmask, ascending."""
    return tuple(v for v in range(1, K.m + 1) if union >> (v - 1) & 1)


@lru_cache(maxsize=8)
def taylor_components(K):
    """Per-subset split on the admissible words: S -> ChainComplex of the
    admissible words with union exactly S, for cycle classes (`taylor_class`)
    and as the labelled reference of `taylor_homology_by_support`.

    A block's basis is the full block's, in its order (by factor count, then
    lexicographically), with the words that are not admissible left out; the
    differential is the insertion differential with the targets that are not
    admissible dropped.  That is
    the quotient by an acyclic subcomplex, so every block has the homology
    of the full block.  A union that carries no admissible word has no
    block; its full block is acyclic.  Every word of a block has the block's
    union, so its boundary is taken against that one bitmask."""
    gens, masks = _checked_generators(K)
    blocks = {}
    for union, words in admissible_words(masks).items():
        basis = {}
        for word in words:
            basis.setdefault(-word.bit_count(), []).append(
                tuple(F for i, F in enumerate(gens) if word >> i & 1))
        blocks[union] = basis
    kept = {w for basis in blocks.values() for words in basis.values() for w in words}

    def boundary(word, union):
        return {new: sign for _, new, sign in insertions(word, gens, masks, union)
                if new in kept}
    return {_union_support(K, union):
            ChainComplex.from_boundary(basis, lambda w, union=union: boundary(w, union))
            for union, basis in blocks.items()}


def _word_columns(words, inside):
    """(dims, columns) of one block for `column_homology`: `words` are its
    admissible words as index bitmasks in basis order, `inside` the bits of
    the generators whose vertex bitmask lies inside the block's union.  The
    word with index mask x sits in degree -popcount(x); inserting generator
    bit b outside x gives x | b with sign (-1)^popcount(x & (b - 1)), the
    factors before it, and a target that is not admissible is dropped."""
    index, dims = {}, {}
    for word in words:
        d = -word.bit_count()
        index[word] = dims.get(d, 0)
        dims[d] = index[word] + 1
    columns = {}
    for word, j in index.items():
        column = []
        for b in inside:
            if not word & b and (i := index.get(word | b)) is not None:
                column.append((i, -1 if (word & (b - 1)).bit_count() & 1 else 1))
        if column:
            columns.setdefault(-word.bit_count(), {})[j] = column
    return dims, columns


def taylor_homology_by_support(K):
    """Homology of every component, {(S, 2|S| - s): group}, nontrivial only.

    Each union of admissible words (`admissible_words`) is one block, kept
    on index bitmasks: its differential inserts each generator inside the
    union that is not in the word, with the sign of the factors before it,
    and drops the targets that are not admissible (`_word_columns`), so it
    is `taylor_components`' block in the same basis order.
    `column_homology` reads the groups from the boundary columns, d^2 = 0
    checked, with no labelled complex built."""
    _, masks = _checked_generators(K)
    table = {}
    for union, words in admissible_words(masks).items():
        inside = [1 << q for q, mask in enumerate(masks) if not mask & ~union]
        S = _union_support(K, union)
        for d, h in column_homology(*_word_columns(words, inside)).items():
            table[(S, 2 * len(S) + d)] = h
    return table


def taylor_homology(K):
    """Homology of Z_K via the Taylor complex, total degree 2|S|-s."""
    return degree_sums(taylor_homology_by_support(K))


def taylor_class(K, chain):
    """Class of a Taylor cycle, projected onto the admissible words of each
    component it touches (`class_by_support`); non-cycles and factors that
    are not missing faces of K are refused (`taylor_boundary`)."""
    if taylor_boundary(K, chain):
        raise ValueError("chain is not a cycle")
    return class_by_support(taylor_components(K).get, word_support, -chain.s, chain.terms)


def taylor_cycle_is_boundary(K, chain):
    return not chain or taylor_class(K, chain).is_boundary


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
    """Closed-form Taylor cycle of a nested product.

    Factor k (k = 1..n) collects the missing faces whose leftover past the
    first n-k levels is exactly the level-(n-k+1) leaf set; the rightmost
    factor is the single generator on the innermost leaves.  The result is
    asserted to be a cycle of the face Taylor complex.
    """
    levels = nested_levels(w)
    n = len(levels)
    mfs = mf_order(K)
    factors = []
    for k in range(1, n + 1):
        absorbed = set()
        for j in range(n - k):
            absorbed.update(levels[j])
        target = levels[n - k]
        hits = [F for F in mfs if tuple(sorted(set(F) - absorbed)) == target]
        if not hits:
            raise ValueError(
                f"no missing face matches level {n - k + 1} leaves {target}")
        factors.append(hits)
    if factors[-1] != [tuple(levels[0])]:
        raise AssertionError("rightmost factor is not the innermost generator")
    terms = {}
    for pick in product(*factors):
        word, sign = normalise_word(pick)
        if word is None:
            continue
        terms[word] = terms.get(word, 0) + sign
    chain = TaylorChain(terms)
    if taylor_boundary(K, chain):
        raise AssertionError("closed-form chain is not a cycle")
    return chain


# -- monomial ideals and the module-version resolution ------------------------------

def _lcm(exps):
    out = None
    for e in exps:
        out = e if out is None else tuple(max(a, b) for a, b in zip(out, e))
    return out


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

    def is_squarefree(self):
        return all(x <= 1 for g in self.gens for x in g)

    def complex(self):
        """The simplicial complex whose missing faces are the generators."""
        if not self.is_squarefree():
            raise ValueError("only square-free ideals cut out a complex")
        sups = [frozenset(i + 1 for i, x in enumerate(g) if x) for g in self.gens]
        faces_ = []
        for k in range(self.m + 1):
            for cand in combinations(range(1, self.m + 1), k):
                if not any(s <= set(cand) for s in sups):
                    faces_.append(cand)
        return SimplicialComplex(self.m, faces_)

    def lcm_all(self):
        return _lcm(self.gens)


def taylor_module_differential(gens):
    """Symbolic Taylor differential over a raw generator list.

    Entries are keyed ((target index set), (source index set)) and valued
    (sign, quotient exponent vector), quotient = lcm(J) / lcm(J minus j).
    """
    t = len(gens)
    entries = {}
    for s in range(1, t + 1):
        for J in combinations(range(t), s):
            lc = _lcm([gens[j] for j in J])
            for n, j in enumerate(J):
                rest = J[:n] + J[n + 1:]
                lr = _lcm([gens[r] for r in rest]) if rest else tuple(0 for _ in lc)
                quotient = tuple(a - b for a, b in zip(lc, lr))
                sign = -1 if n % 2 else 1
                entries[(rest, J)] = (sign, quotient)
    return entries


def taylor_module_resolution(ideal, bound=None):
    """Truncated module-version Taylor complex as one ChainComplex.

    Degree s has basis (beta, J): beta a multidegree below the bound with
    lcm(J) dividing it; the differential drops one generator at a time and
    keeps the multidegree.  For square-free ideals the natural bound is the
    square-free cube; otherwise the lcm of all generators.
    """
    if bound is None:
        bound = (tuple(1 for _ in range(ideal.m)) if ideal.is_squarefree()
                 else ideal.lcm_all())
    betas = [tuple(b) for b in product(*(range(x + 1) for x in bound))]
    lcms = {J: _lcm([ideal.gens[j] for j in J]) if J else tuple(0 for _ in range(ideal.m))
            for s in range(len(ideal.gens) + 1)
            for J in combinations(range(len(ideal.gens)), s)}
    basis = {}
    for J, lc in lcms.items():
        for beta in betas:
            if _divides(lc, beta):
                basis.setdefault(len(J), []).append((beta, J))
    for s in basis:
        basis[s].sort()

    def boundary(label):
        beta, J = label
        return {(beta, J[:n] + J[n + 1:]): -1 if n % 2 else 1 for n in range(len(J))}
    return ChainComplex.from_boundary(basis, boundary)


@dataclass(frozen=True)
class ResolutionReport:
    module_exact: bool
    failures: tuple

    def ok(self):
        return self.module_exact


def verify_taylor_is_resolution(ideal, bound=None):
    """Per-multidegree exactness of the module Taylor complex.

    Exactness means vanishing homology in positive indices and a degree-zero
    cokernel equal to the monomial span of the quotient ring: Z exactly at
    the multidegrees no generator divides."""
    C = taylor_module_resolution(ideal, bound)
    failures = []
    by_beta = {}
    for s, labs in C.basis.items():
        for beta, J in labs:
            by_beta.setdefault(beta, set()).add(s)
    # homology degreewise; the complex already splits by beta, so a global
    # check at each s is equivalent to all per-multidegree checks at s
    for s in sorted(C.basis):
        h = C.homology(s)
        if s >= 1 and not h.is_trivial():
            failures.append((s, str(h)))
    h0 = C.homology(0)
    expected_rank = sum(
        1 for beta in by_beta
        if not any(_divides(g, beta) for g in ideal.gens))
    if h0.torsion or h0.rank != expected_rank:
        failures.append((0, f"H_0 = {h0}, expected Z^{expected_rank}"))
    return ResolutionReport(not failures, tuple(failures))


@dataclass(frozen=True)
class ConeReport:
    levels: tuple        # (t, matches) per recursion level
    matches: bool


def _reduced_gens(gens, last):
    return tuple(tuple(max(a - b, 0) for a, b in zip(g, last)) for g in gens)


def cone_reconstruction(ideal):
    """Rebuild the Taylor differential as an iterated mapping cone.

    At each level t the cone of the comparison morphism from the reduced
    list (generators divided by their gcd with the last one) into the
    shorter Taylor complex is matched against the direct construction under
    the index map e_J -> e_J, bar e_J -> (-1)^{|J|} e_{J + {t}}; with the
    cone differential taken as (phi - d) on the shifted summand the match is
    exact, signs included."""
    gens = ideal.gens
    if len(gens) > 8:
        raise SizeLimitError("cone reconstruction is limited to 8 generators")
    levels = []
    overall = True
    for t in range(1, len(gens) + 1):
        prefix = gens[:t]
        ok = _cone_level_matches(prefix)
        levels.append((t, ok))
        overall = overall and ok
    return ConeReport(tuple(levels), overall)


def _cone_level_matches(gens):
    t = len(gens)
    if t == 1:
        return True
    last = gens[-1]
    short = gens[:-1]
    reduced = _reduced_gens(short, last)
    d_short = taylor_module_differential(short)
    d_reduced = taylor_module_differential(reduced)
    d_full = taylor_module_differential(gens)
    zero = tuple(0 for _ in range(len(last)))
    # cone basis: ("plain", J) in level |J|, ("bar", J) in level |J|+1
    cone = {}
    for (rest, J), (sign, q) in d_short.items():
        cone[(("plain", rest), ("plain", J))] = (sign, q)
    for s in range(0, t):
        for J in combinations(range(t - 1), s):
            lc = _lcm([gens[j] for j in J] + [last])
            lj = _lcm([gens[j] for j in J]) if J else zero
            phi_quotient = tuple(a - b for a, b in zip(lc, lj))
            cone[(("plain", J), ("bar", J))] = (1, phi_quotient)
    for (rest, J), (sign, q) in d_reduced.items():
        cone[(("bar", rest), ("bar", J))] = (-sign, q)
    # transport through psi and compare with the direct differential
    def psi(label):
        kind, J = label
        if kind == "plain":
            return 1, J
        return (-1) ** len(J), tuple(sorted(J + (t - 1,)))

    transported = {}
    for (row, col), (sign, q) in cone.items():
        s_r, jr = psi(row)
        s_c, jc = psi(col)
        key = (jr, jc)
        transported[key] = (sign * s_r * s_c, q)
    if set(transported) != set(d_full):
        return False
    return all(transported[k] == d_full[k] for k in d_full)
