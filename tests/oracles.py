"""Independent brute-force oracles for the test suite.

Everything here recomputes results along a second route: dense textbook
Smith normal form, a sparse Smith normal form that scans the whole matrix
for every pivot (the reference for the package's fast one), the Taylor and
horizontal differentials by front insertion and sorting back (the
reference for the package's insertion on index bitmasks), the whole
per-support split of the Taylor complex and Lyubeznik admissibility from
its definition (the reference for the package's blocks on the admissible
words only), the cell boundary by sorting and counting (the reference for
the package's insertion sign on the circle bitmask), the staircase's
vertical solve over the whole multidegree slice (the reference for the
package's solve one word at a time), definition-level missing
faces, the missing faces of a full subcomplex by a scan of K's face masks
inside it (`reference_missing_faces_within`, the reference for the
package's generator table), the connected parts of the 1-skeleton read off
the missing edges and the twin classes by a swap test on the missing faces
(`reference_connected_parts`, `reference_twin_classes`, the references for
the package's rules on the facets), substitution and cone points, the closure of facets, boundary, join
and bd_Delta(w) on sets of face tuples (`TupleComplex`, the reference for
the package's constructors on face bitmasks), permutation-search shiftedness (the
reference for the package's order by facet dominance), the shifted wedge
basis's pairs by a scan of every vertex subset (the reference for reading
them off the missing faces), the direct sum of homology groups by
trial-division factorisation (the reference for the package's gcd and lcm
sweep), and the full cellular blocks of Z_K with the cellular table and
cycle classes reduced in them (the reference for the package's star quotients over the
missing-face lattice, and for its classes projected onto those quotients),
the star quotient on (J, I) labels built through `from_boundary` (the
reference for the package's quotient built on face masks), the star
quotient's cells and columns written out cell by cell on disc masks
(`reference_star_cells`, the reference for the package's circle masks read
through the one column builder) and its vertex chosen by a list scan of
the faces of K_S (`reference_star_vertex`, the reference for the package's
chooser on the face indicator's or the face index's bitsets), the columns
of an exterior complex with every word indexed and every bit tried
(`reference_insertion_columns`) and their groups with every differential
through the full-scan Smith normal form (`reference_column_groups`), the
references for the package's builder that skips single-degree blocks and
its rule that reads a one-column differential's gcd, the whole
module Taylor complex in a box of multidegrees with its exactness read
degree by degree (the reference for the package's Lyubeznik check on the
lcm lattice), the module Taylor differential rebuilt as iterated mapping
cones (`cone_reconstruction`), and the Hochster embedding of simplicial
chains into the cellular chains of Z_K (`hochster_embed`, the chain map the
package's sign conventions are chosen for), and the homology of Z_K in
closed form for isolated points, polygons, joins of copies of S^0 (the
cross-polytopes), disjoint edges, simplices and their boundaries
(`closed_form_homology`, a reference for the three routes that builds no
chain complex).
None of it shares code with the package internals it checks beyond the
IntMatrix, SmithForm, ChainComplex and HomologyClass containers, with two
exceptions, routes the package used before.  Whether bd_Delta(w) or the
trivialising join sits in K is decided by building the complex (`delta_w`,
`join`) and checking it face by face (the reference for the package's test
on missing faces); the tests check those builds against the substitution's
definition.  The staircase and the nested closed form run on labelled
triples and words, sorted back into generator order by
`_reference_normalise_word` (the reference for the package's staircase and
closed form on generator bitmasks); the labelled bicomplex
(`BicomplexChain`, `vertical_diff`) and the reference's trace, (kind,
element) pairs, live here, and the staircase
solves in Koszul blocks of its own, labelled matrices reduced by the
full-scan Smith form (`reference_koszul_block`, the reference for the
package's contracting homotopy).  The canonical chain of a bracket is built on
label tuples by a sorting product of its own and checked to be a cycle by
`reference_cell_boundary` (`reference_canonical_chain`, the reference for
`CellChain.product` on vertex bitmasks).  The package keys a cell (J, I)
by vertex bitmasks; the references work on label tuples, and cross over
only at the edge: `labelled_cell` and `labelled_cells` write package cells
as tuples, and `cell_chain` makes a package CellChain of tuple cells
(`hochster_embed`, `BicomplexChain.from_cell_chain` and
`reference_zk_class` go through them).  Likewise the package keys a
Taylor word by the bitmask of its generator indices on K's table, and the
references work on label words: `taylor_chain` makes K's TaylorChain of
label words, `labelled_words` writes a chain's words as labels, and
`reference_taylor_text` writes label words as text with sorting of its
own (the reference for `TaylorChain.to_text` on index bitmasks).
`taylor_boundary_word` is no oracle: it is the package's own insertion
rule on one word, the form the tests compare with the reference.
The text layer the package replaced with one-walk writers and integer
keys is the reference for them: the cell writer sorting decoded label
tuples (`reference_cell_text`, with `cell_letters`), the signed sum joined
whole and then `+ -` replaced (`reference_signed_sum_text`), a staircase
step as the labelled triples of `BicomplexChain` (`labelled_step`, for
`reference_trace_list`), and the bracket reader on the shared `Scanner`
with a normalisation of its own (`reference_parse_whitehead`), whose
errors and columns the package's reader must repeat.  Lyubeznik's words
grown with a sort of each layer and a scan of every generator
(`reference_admissible_words`) and the JSON reader that checks m, every
label's type, the bound and then each face in turn
(`reference_from_json_dict`) are the references for the package's walk
over layer suffixes and its one pass over the labels.  `relabelled`,
`vertex_to_leaf`, `identity_matrix`, `to_dense`, `chain_from_vector` and
`boundary_vector` are helpers that only the tests use.
"""

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations, permutations, product
from math import comb

from momangle.complexes import (SignedSum, SimplicialComplex, SizeLimitError, face,
                                face_mask, is_subcomplex, join, mask_face, read_text, simplex,
                                simplex_boundary, word_text)
from momangle.exactalg import (ChainComplex, HomologyClass, HomologyGroup, IntMatrix,
                               SmithForm)
from momangle.moment_angle import ZK_MAX_VERTICES, CellChain, support_table
from momangle.taylor import TaylorChain, nested_levels, taylor_boundary
from momangle.whitehead import WhiteheadExpr, bracket, delta_w, leaf
from momangle.zigzag import ZigzagError


def dense_snf_diagonal(rows):
    """Invariant factors of a dense integer matrix, no transforms.

    The smallest remaining entry is re-selected as the pivot before every
    reduction pass, which keeps the entries from blowing up."""
    a = [list(map(int, r)) for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    diag = []
    t = 0
    while t < min(m, n):
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] and (piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        i0, j0 = piv
        a[t], a[i0] = a[i0], a[t]
        for r in a:
            r[t], r[j0] = r[j0], r[t]
        p = a[t][t]
        residue = False
        for i in range(t + 1, m):
            if a[i][t]:
                q = a[i][t] // p
                for j in range(t, n):
                    a[i][j] -= q * a[t][j]
                residue = residue or bool(a[i][t])
        for j in range(t + 1, n):
            if a[t][j]:
                q = a[t][j] // p
                for i in range(t, m):
                    a[i][j] -= q * a[i][t]
                residue = residue or bool(a[t][j])
        if residue:
            continue            # a smaller entry appeared; re-pivot
        bad = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % p:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            for j in range(t, n):
                a[t][j] += a[bad][j]
            continue
        diag.append(abs(p))
        t += 1
    return diag


class _ReferenceSnfWorker:
    """Row/column elimination state for the Smith normal form.

    Pivot rule: smallest nonzero magnitude, ties broken by (row, col); this
    fixes the transforms and therefore every canonical solution downstream.
    """

    def __init__(self, A, transforms=True):
        self.m, self.n = A.rows, A.cols
        self.a = {}
        self.colind = {}
        for (i, j), v in A.entries.items():
            self.a.setdefault(i, {})[j] = v
            self.colind.setdefault(j, set()).add(i)
        self.transforms = transforms
        if transforms:
            self.u = {i: {i: 1} for i in range(self.m)}     # rows of U
            self.v = {j: {j: 1} for j in range(self.n)}     # columns of V
            self.vinv = {j: {j: 1} for j in range(self.n)}  # rows of V^-1

    # -- elementary operations (mirrored into the transforms) --------------

    def _set(self, i, j, val):
        row = self.a.setdefault(i, {})
        if val:
            row[j] = val
            self.colind.setdefault(j, set()).add(i)
        else:
            if j in row:
                del row[j]
                self.colind[j].discard(i)

    def row_swap(self, i, k):
        if i == k:
            return
        ri, rk = self.a.get(i, {}), self.a.get(k, {})
        for j in set(ri) | set(rk):
            s = self.colind[j]
            s.discard(i), s.discard(k)
        self.a[i], self.a[k] = rk, ri
        for j in self.a[i]:
            self.colind[j].add(i)
        for j in self.a[k]:
            self.colind[j].add(k)
        if self.transforms:
            self.u[i], self.u[k] = self.u[k], self.u[i]

    def row_addmul(self, i, k, q):
        """row_i += q * row_k."""
        if not q:
            return
        for j, v in list(self.a.get(k, {}).items()):
            self._set(i, j, self.a.get(i, {}).get(j, 0) + q * v)
        if self.transforms:
            ui = self.u[i]
            for j, v in self.u[k].items():
                w = ui.get(j, 0) + q * v
                if w:
                    ui[j] = w
                elif j in ui:
                    del ui[j]

    def row_negate(self, i):
        for j, v in self.a.get(i, {}).items():
            self.a[i][j] = -v
        if self.transforms:
            self.u[i] = {j: -v for j, v in self.u[i].items()}

    def col_swap(self, j, k):
        if j == k:
            return
        rows = self.colind.get(j, set()) | self.colind.get(k, set())
        for i in rows:
            row = self.a[i]
            vj, vk = row.get(j, 0), row.get(k, 0)
            self._set(i, j, vk)
            self._set(i, k, vj)
        if self.transforms:
            self.v[j], self.v[k] = self.v[k], self.v[j]
            self.vinv[j], self.vinv[k] = self.vinv[k], self.vinv[j]

    def col_addmul(self, j, k, q):
        """col_j += q * col_k; V gets the same op, V^-1 the inverse row op."""
        if not q:
            return
        for i in list(self.colind.get(k, set())):
            v = self.a[i].get(k, 0)
            self._set(i, j, self.a[i].get(j, 0) + q * v)
        if self.transforms:
            vj = self.v[j]
            for i, v in self.v[k].items():
                w = vj.get(i, 0) + q * v
                if w:
                    vj[i] = w
                elif i in vj:
                    del vj[i]
            # (I + q E_{kj})^-1 = I - q E_{kj}: row_k of V^-1 -= q * row_j
            rk = self.vinv[k]
            for jj, v in self.vinv[j].items():
                w = rk.get(jj, 0) - q * v
                if w:
                    rk[jj] = w
                elif jj in rk:
                    del rk[jj]

    # -- the algorithm ------------------------------------------------------

    def find_pivot(self, t):
        best = None
        for i, row in self.a.items():
            if i < t or not row:
                continue
            for j, v in row.items():
                if j < t:
                    continue
                key = (abs(v), i, j)
                if best is None or key < best:
                    best = key
        return None if best is None else (best[1], best[2])

    def run(self):
        diag = []
        t = 0
        limit = min(self.m, self.n)
        while t < limit:
            pos = self.find_pivot(t)
            if pos is None:
                break
            self.row_swap(t, pos[0])
            self.col_swap(t, pos[1])
            if self.a[t][t] < 0:
                self.row_negate(t)
            while True:
                p = self.a[t][t]
                dirty = False
                for i in sorted(self.colind.get(t, set())):
                    if i == t:
                        continue
                    q = self.a[i][t] // p
                    self.row_addmul(i, t, -q)
                    if self.a.get(i, {}).get(t):
                        dirty = True
                for j in sorted(self.a.get(t, {})):
                    if j == t:
                        continue
                    q = self.a[t][j] // p
                    self.col_addmul(j, t, -q)
                    if self.a[t].get(j):
                        dirty = True
                if dirty:
                    # a remainder smaller than the pivot appeared; adopt it
                    pos = self.find_pivot(t)
                    self.row_swap(t, pos[0])
                    self.col_swap(t, pos[1])
                    if self.a[t][t] < 0:
                        self.row_negate(t)
                    continue
                # pivot must divide everything that remains
                p = self.a[t][t]
                offender = None
                for i, row in self.a.items():
                    if i <= t:
                        continue
                    for j, v in row.items():
                        if j > t and v % p:
                            offender = (i, j) if offender is None else min(offender, (i, j))
                if offender is None:
                    break
                self.row_addmul(t, offender[0], 1)
            diag.append(self.a[t][t])
            t += 1
        return diag

    def result(self):
        diag = self.run()
        S = IntMatrix(self.m, self.n,
                      {(t, t): d for t, d in enumerate(diag) if d})
        if not self.transforms:
            return SmithForm(S, None, None, None, tuple(diag))
        U = IntMatrix(self.m, self.m, {(i, j): v for i, row in self.u.items()
                                       for j, v in row.items()})
        V = IntMatrix(self.n, self.n, {(i, j): v for j, col in self.v.items()
                                       for i, v in col.items()})
        vinv = IntMatrix(self.n, self.n, {(i, j): v for i, row in self.vinv.items()
                                          for j, v in row.items()})
        return SmithForm(S, U, V, vinv, tuple(diag))


def reference_snf(A, transforms=True):
    """Smith normal form by the full-scan elimination above: the pivot is the
    least (|v|, row, col) found by scanning the whole remaining matrix, and
    every pivot is checked against every remaining entry for divisibility."""
    return _ReferenceSnfWorker(A, transforms).result()


def reference_insertion_columns(words, inside):
    """(dims, columns) of an exterior complex on bitmasks, every word indexed
    and every bit of inside & ~x tried for every word x: the package's
    column builder before it skipped the complexes whose occupied degrees
    are never adjacent.  The word x sits in degree -popcount(x); bit b
    enters it as x | b with sign (-1)^popcount(x & (b - 1)), a target that
    is not a word is dropped, and the rows run by ascending b."""
    index, dims = {}, {}
    for word in words:
        d = -word.bit_count()
        index[word] = dims.get(d, 0)
        dims[d] = index[word] + 1
    columns = {}
    for word, j in index.items():
        column = []
        for k in range(inside.bit_length()):
            b = 1 << k
            if inside & b and not word & b and (i := index.get(word | b)) is not None:
                column.append((i, -1 if (word & (b - 1)).bit_count() & 1 else 1))
        if column:
            columns.setdefault(-word.bit_count(), {})[j] = column
    return dims, columns


def reference_column_groups(dims, columns):
    """{d: H_d}, nontrivial only, from the ranks `dims` and the nonzero
    columns of the differentials: every differential with an entry goes
    through the full-scan Smith normal form (`reference_snf`), one column or
    many, and the groups are built afresh, in ascending degree."""
    factors = {}
    for d, cols in columns.items():
        A = IntMatrix(dims.get(d - 1, 0), dims.get(d, 0),
                      {(i, j): v for j, column in cols.items() for i, v in column})
        factors[d] = [f for f in reference_snf(A, transforms=False).diag if f]
    out = {}
    for d in sorted(dims):
        into = factors.get(d + 1, ())
        rank = dims[d] - len(factors.get(d, ())) - len(into)
        torsion = tuple(f for f in into if f > 1)
        if rank or torsion:
            out[d] = HomologyGroup(rank, torsion)
    return out


def _reference_gen_key(f):
    return (len(f), f)


def _reference_normalise_word(faces_):
    """Sort an exterior word into generator order; None when a factor repeats."""
    word = list(faces_)
    sign = 1
    for i in range(1, len(word)):
        j = i
        while j and _reference_gen_key(word[j - 1]) > _reference_gen_key(word[j]):
            word[j - 1], word[j] = word[j], word[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(word, word[1:]):
        if a == b:
            return None, 0
    return tuple(word), sign


def reference_taylor_boundary_word(K, word):
    """Differential of one exterior monomial as {word: coeff}: every missing
    face inside the union and outside the word enters at the front, and the
    word is sorted back by insertion, one swap and one sign change at a time."""
    mfs = tuple(sorted(K.missing_faces(), key=_reference_gen_key))
    union = set().union(*word) if word else set()
    have = set(word)
    out = {}
    for F in mfs:
        if F in have or not set(F) <= union:
            continue
        # the new factor enters at the front and the word is sorted back
        new, sign = _reference_normalise_word((F,) + word)
        out[new] = out.get(new, 0) + sign
    return out


def vertex_to_leaf(dw):
    """The vertex -> leaf map of a `DeltaW`, its `leaf_map` inverted."""
    return {v: l for l, v in dw.leaf_map.items()}


def relabelled(K, mapping, m=None):
    """K with vertex v renamed mapping[v] (injective), on m vertices (the
    largest new label by default), through the face-list constructor."""
    if len(set(mapping.values())) != len(mapping):
        raise ValueError("relabelling must be injective")
    faces = [tuple(sorted(mapping[v] for v in f)) for f in K.faces]
    return SimplicialComplex(m if m is not None else max(mapping.values(), default=0), faces)


def identity_matrix(n):
    return IntMatrix(n, n, {(i, i): 1 for i in range(n)})


def to_dense(A):
    """An IntMatrix as a list of rows."""
    rows = [[0] * A.cols for _ in range(A.rows)]
    for (i, j), v in A.entries.items():
        rows[i][j] = v
    return rows


def chain_from_vector(C, d, vec):
    """The chain {label: coeff} of C_d with coordinates {index: coeff}."""
    labels = C.basis.get(d, [])
    return {labels[i]: v for i, v in vec.items() if v}


def boundary_vector(C, d, chain):
    """The coordinates of the boundary of a chain of C_d."""
    return C.differential(d).apply(C.vector(d, chain))


def taylor_boundary_word(K, word):
    """The package's differential of one label word, `taylor_boundary`'s
    insertion on index bitmasks, as {label word: coeff}: the form the tests
    compare with `reference_taylor_boundary_word`."""
    return labelled_words(taylor_boundary(K, taylor_chain(K, {word: 1})))


def taylor_chain(K, label_terms):
    """The package's TaylorChain of K from {label word: coeff}: each word's
    factors sorted into generator order with their sign
    (`_reference_normalise_word`) and read as an index bitmask by
    `Generators.word`, which refuses a repeated factor and one that is no
    missing face of K."""
    gens = K.generators()
    terms = {}
    for word, c in label_terms.items():
        _, sign = _reference_normalise_word(word)
        key = gens.word(word)
        terms[key] = terms.get(key, 0) + sign * c
    return TaylorChain(gens, terms)


def labelled_word(gens, word):
    """A package word, a bitmask of indices into the `Generators` gens, as
    its label word, the faces in generator order."""
    return tuple(gens.faces[q - 1] for q in mask_face(word))


def labelled_words(chain):
    """A package TaylorChain's terms on label words, {label word: coeff}."""
    return {labelled_word(chain.gens, word): c for word, c in chain.terms.items()}


def reference_taylor_text(label_terms):
    """The text of {label word: coeff}, written on labels: each word sorted
    into generator order with its sign (`_reference_normalise_word`), a
    repeated factor's word dropped, then factors named by `word_text` in
    descending generator order, the sign of reversing s factors,
    (-1)^(s(s - 1)/2), on the coefficient, and the words sorted by the ranks
    of their factors in generator order."""
    terms = {}
    for word, c in label_terms.items():
        word, sign = _reference_normalise_word(word)
        if word is not None:
            terms[word] = terms.get(word, 0) + sign * c
    factors = sorted({f for word in terms for f in word}, key=_reference_gen_key)
    rank = {f: i for i, f in enumerate(factors)}
    return reference_signed_sum_text(
        ("^".join("w" + word_text(f) for f in reversed(word)),
         -c if (len(word) * (len(word) - 1) // 2) % 2 else c)
        for word, c in sorted(terms.items(), key=lambda t: [rank[f] for f in t[0]]) if c)


def reference_taylor_components(K):
    """Every Taylor word of K, admissible or not, split by its union S:
    {S: ChainComplex}, words by factor count and then lexicographically in
    generator order, with the sort-based differential."""
    mfs = tuple(sorted(K.missing_faces(), key=_reference_gen_key))
    by_support = {}
    for s in range(len(mfs) + 1):
        for word in combinations(mfs, s):
            S = tuple(sorted(set().union(*word)))
            by_support.setdefault(S, {}).setdefault(-s, []).append(word)
    return {S: ChainComplex.from_boundary(
                basis, lambda w: reference_taylor_boundary_word(K, w))
            for S, basis in by_support.items()}


def lyubeznik_admissible(K, word):
    """Lyubeznik's rule for a word F_{i_1} ^ ... ^ F_{i_s} with i_1 < ... <
    i_s: no generator F_q with q < i_t lies inside F_{i_t} u ... u F_{i_s},
    for any t."""
    mfs = sorted(K.missing_faces(), key=_reference_gen_key)
    index = [mfs.index(F) for F in word]
    for t in range(len(word)):
        union = set().union(*word[t:])
        if any(set(mfs[q]) <= union for q in range(index[t])):
            return False
    return True


def reference_admissible_words(gens):
    """Lyubeznik's admissible words grown right to left as the package grew
    them before its walk over layer suffixes: j enters in front of each word
    w of a layer, j below w's lowest index, when the first generator inside
    the new union (a scan of every mask) is j, and each new layer is sorted
    by (j, position of w in its layer).  {union: words} on index bitmasks."""
    masks = gens.masks
    by_union = {0: [0]}
    layer = [(1 << i, mask) for i, mask in enumerate(masks)]
    while layer:
        grown = []
        for k, (word, union) in enumerate(layer):
            by_union.setdefault(union, []).append(word)
            for j in range((word & -word).bit_length() - 1):
                new = union | masks[j]
                first = next(q for q, mask in enumerate(masks) if not mask & ~new)
                if first == j:
                    grown.append((j, k, word | 1 << j, new))
        grown.sort()
        layer = [(word, union) for _, _, word, union in grown]
    return by_union


def labelled_cell(cell):
    """A package cell (J, I) on vertex bitmasks as its label tuples."""
    J, I = cell
    return mask_face(J), mask_face(I)


def labelled_cells(terms):
    """Package cell terms {(J, I) bitmasks: coeff} on label tuples."""
    return {labelled_cell(cell): c for cell, c in terms.items()}


def cell_chain(label_terms):
    """The package's CellChain of {(J, I) label tuples: coeff}."""
    return CellChain({(face_mask(J), face_mask(I)): c for (J, I), c in label_terms.items()})


def cell_letters(J, I):
    """The letters of the cell (J, I) in vertex order: `S` circles, `D` discs."""
    return [("D%d" if I >> (v - 1) & 1 else "S%d") % v for v in mask_face(J | I)]


def reference_signed_sum_text(terms):
    """`a - b + 3*c` from (word, coefficient) pairs in order, written whole
    and then `+ -` replaced by `- `; the empty word is written `1`, the
    empty sum `0` (the reference for `complexes.signed_sum_text` on signed
    terms)."""
    bits = []
    for word, c in terms:
        word = word or "1"
        bits.append(word if c == 1 else "-" + word if c == -1 else f"{c}*{word}")
    return " + ".join(bits).replace("+ -", "- ") or "0"


def reference_cell_text(chain):
    """A CellChain's text with each cell's labels decoded to tuples: words
    sorted by their (I, J) label tuples (the reference for
    `CellChain.to_text`'s one walk and integer keys)."""
    return reference_signed_sum_text(
        ("*".join(cell_letters(J, I)), c)
        for (J, I), c in sorted(chain.terms.items(),
                                key=lambda t: (mask_face(t[0][1]), mask_face(t[0][0]))))


def labelled_step(step):
    """A package staircase step as the reference's (kind, element) pair, its
    element the bicomplex chain of its triples (I, J, W faces), I the rest
    of its slice: `reference_trace_list` of these pairs is the reference
    for `ZigzagTrace.to_list`."""
    gens, out = step._generators, {}
    for (J, W), c in step.terms.items():
        word = labelled_word(gens, W)
        union = face_mask({v for F in word for v in F})
        out[(mask_face(step.S & ~J & ~union), mask_face(J), word)] = c
    return step.kind, BicomplexChain(out)


def reference_leaf(v):
    if v < 1:
        raise ValueError("leaf labels must be positive")
    return WhiteheadExpr(v, (), (v,))


def reference_bracket(children):
    """A bracket normalised kid by kid: arity and repeated leaves checked,
    sub-brackets before leaves, by smallest leaf."""
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
    return WhiteheadExpr(0, tuple(kids[i] for i in order), tuple(sorted(seen)))


def reference_parse_whitehead(text):
    """The bracket grammar read by the shared `Scanner`, one method call per
    token and a recursive reader per expression (the reference for
    `whitehead.parse_whitehead`, its errors and their columns)."""
    def read(sc):
        if not sc.accept("["):
            return reference_leaf(sc.integer())
        kids = sc.items(lambda: read(sc))
        sc.expect("]")
        return reference_bracket(kids)
    return read_text(text, read)


def _reference_cell_product(a, b):
    """The concatenation product of two chains {(J, I) label tuples: coeff}
    on disjoint vertices: the letters sorted by vertex, each inversion
    between two circle letters a sign change (disc letters are even)."""
    out = {}
    for (J1, I1), c1 in a.items():
        for (J2, I2), c2 in b.items():
            inversions = sum(1 for x in J1 for y in J2 if y < x)
            cell = (tuple(sorted(J1 + J2)), tuple(sorted(I1 + I2)))
            out[cell] = out.get(cell, 0) + (-1) ** inversions * c1 * c2
    return {cell: c for cell, c in out.items() if c}


def _reference_canonical_terms(w):
    """`reference_canonical_chain(w)` on label tuples."""
    subs, leaves_ = w.bracket_children(), tuple(sorted(w.leaf_children()))
    if subs and not leaves_:
        raise ValueError("brackets with sub-products only have no canonical cellular chain")
    factor = {((v,), tuple(x for x in leaves_ if x != v)): 1 for v in leaves_}
    terms = reduce(_reference_cell_product, [*map(_reference_canonical_terms, subs), factor])
    if any(2 * len(I) + len(J) != w.dimension() for J, I in terms):
        raise AssertionError("canonical chain degree mismatch")
    boundary = {}
    for cell, c in terms.items():
        for target, sign in reference_cell_boundary(cell).items():
            boundary[target] = boundary.get(target, 0) + sign * c
    if any(boundary.values()):
        raise ValueError("chain is not a cycle")
    return terms


def reference_canonical_chain(w):
    """The canonical chain of a bracket built on labelled cells: the sorting
    product of the sub-products' chains with the boundary-of-polydisc
    factor on the bracket's own leaves, checked to be a cycle by
    `reference_cell_boundary`, then put onto bitmasks.  Raises the
    package's refusals."""
    return cell_chain(_reference_canonical_terms(w))


def reference_cell_boundary(cell):
    """Boundary of the cell (J, I) as {cell: coeff}: each disc letter i joins
    J by sorting, with the sign of the number of circle letters below it."""
    J, I = cell
    out = {}
    for i in I:
        sign = -1 if sum(1 for j in J if j < i) % 2 else 1
        out[(tuple(sorted(J + (i,))), tuple(x for x in I if x != i))] = sign
    return out


class BicomplexChain(SignedSum):
    """Sparse integer combination of bicomplex basis triples (I, J, W)."""

    __slots__ = ()

    def __init__(self, terms):
        self.terms = {}
        for (I, J, W), c in terms.items():
            if not c:
                continue
            I, J, W = tuple(I), tuple(J), tuple(W)
            if set(I) & set(J):
                raise ValueError("I and J overlap")
            if len(set(W)) != len(W):
                raise ValueError("repeated missing face in W")
            self.terms[(I, J, W)] = int(c)

    @classmethod
    def from_cell_chain(cls, chain):
        return cls({(I, J, ()): c for (J, I), c in labelled_cells(chain.terms).items()})

    def circle_degrees(self):
        return sorted({len(J) for (_, J, _) in self.terms})

    def is_pure_taylor(self):
        return all(not I and not J for (I, J, _) in self.terms)

    def taylor_part(self, K):
        return taylor_chain(K, {W: c for (I, J, W), c in self.terms.items()
                                if not I and not J})

    def multidegree_components(self):
        """Split by the vertex support I + J + union(W)."""
        out = {}
        for (I, J, W), c in self.terms.items():
            S = set(I) | set(J)
            for F in W:
                S.update(F)
            out.setdefault(tuple(sorted(S)), {})[(I, J, W)] = c
        return {S: BicomplexChain(t) for S, t in out.items()}

    def to_text(self):
        return reference_signed_sum_text(
            ("*".join(cell_letters(face_mask(J), face_mask(I))
                      + ["w" + word_text(F) for F in W]), c)
            for (I, J, W), c in sorted(self.terms.items()))


def vertical_diff(e):
    """Koszul differential, extended identically over the Taylor word: the
    cellular boundary of each term's cell (J, I)."""
    out = {}
    for (I, J, W), c in e.terms.items():
        for (J2, I2), sign in reference_cell_boundary((J, I)).items():
            out[(I2, J2, W)] = out.get((I2, J2, W), 0) + sign * c
    return BicomplexChain(out)


def _reference_slice_basis(S, circle_count, words):
    """Bicomplex basis triples in multidegree S with |J| = circle_count."""
    out = []
    for W in words:
        union = set()
        for F in W:
            union.update(F)
        T = [v for v in S if v not in union]
        if circle_count > len(T):
            continue
        for J in combinations(T, circle_count):
            jset = set(J)
            I = tuple(v for v in T if v not in jset)
            out.append((I, J, W))
    return out


def _reference_words_in(K, S):
    """Exterior words over missing faces inside S, grouped by length."""
    sset = set(S)
    mfs = [F for F in K.missing_faces() if set(F) <= sset]
    return {s: list(combinations(mfs, s)) for s in range(len(mfs) + 1)}


def _reference_vertical_column(label):
    """Vertical differential of one basis triple (I, J, W): each disc letter
    i joins J by sorting, with the sign of the circle letters below it."""
    I, J, W = label
    out = {}
    for i in I:
        sign = -1 if sum(1 for j in J if j < i) % 2 else 1
        out[(tuple(x for x in I if x != i), tuple(sorted(J + (i,))), W)] = sign
    return out


def reference_solve_vertical(K, S, eta):
    """The staircase's vertical preimage over the whole multidegree slice:
    one matrix over every exterior word of the slice's word lengths, reduced
    by the full-scan Smith form; the canonical solution has zero coordinates
    along the kernel columns of V.  Returns {(I, J, W): coeff}, or raises
    ValueError where the package raises ZigzagError."""
    degs = sorted({len(J) for (_, J, _) in eta})
    if len(degs) != 1:
        raise ValueError("staircase element mixes circle degrees")
    j = degs[0]
    words_by_len = _reference_words_in(K, S)
    target_basis, source_basis = [], []
    for wl in sorted({len(W) for (_, _, W) in eta}):
        target_basis.extend(_reference_slice_basis(S, j, words_by_len[wl]))
        source_basis.extend(_reference_slice_basis(S, j - 1, words_by_len[wl]))
    tindex = {lab: i for i, lab in enumerate(target_basis)}
    entries = {}
    for col, lab in enumerate(source_basis):
        for target, c in _reference_vertical_column(lab).items():
            entries[(tindex[target], col)] = c
    b = {}
    for lab, c in eta.items():
        if lab not in tindex:
            raise ValueError(f"element leaves the multidegree slice: {lab}")
        b[tindex[lab]] = c
    x = _reference_canonical_solve(
        reference_snf(IntMatrix(len(target_basis), len(source_basis), entries)), b)
    if x is None:
        raise ValueError("no integer vertical preimage")
    return {source_basis[i]: v for i, v in x.items()}


def _reference_canonical_solve(snf, b):
    """The canonical solution V y, y_t = (U b)_t / diag_t, of A x = b from
    a full-scan Smith form, or None when there is no integer one."""
    c = snf.U.apply(b)
    y = {}
    for t, d in enumerate(snf.diag):
        ct = c.pop(t, 0)
        if ct % d:
            return None
        y[t] = ct // d
    if any(c.values()):
        return None
    return snf.V.apply(y)


def reference_koszul_matrix(n, j):
    """(targets, sources, matrix): the Koszul matrix of the simplex on 1..n
    from circle degree j - 1 to j on labelled circle sets, rows and columns
    in `combinations` order, each column the boundary of the cell
    (J, 1..n - J) by sorting (`reference_cell_boundary`)."""
    letters = range(1, n + 1)
    targets = list(combinations(letters, j))
    sources = list(combinations(letters, j - 1)) if j else []
    row = {J: t for t, J in enumerate(targets)}
    entries = {}
    for col, J in enumerate(sources):
        I = tuple(v for v in letters if v not in J)
        for (J2, _), sign in reference_cell_boundary((J, I)).items():
            entries[(row[J2], col)] = sign
    return targets, sources, IntMatrix(len(targets), len(sources), entries)


@lru_cache(maxsize=None)
def reference_koszul_block(n, j):
    """`reference_koszul_matrix(n, j)` with its full-scan Smith form in
    place of the matrix, the block the labelled staircase solves in."""
    targets, sources, matrix = reference_koszul_matrix(n, j)
    return targets, sources, reference_snf(matrix)


def reference_per_word_solve_vertical(K, S, eta):
    """The staircase's vertical preimage on labelled triples, one word at a
    time: each word W of eta is solved against the Koszul block of
    (|T_W|, j) after the order-preserving relabelling T_W -> 1..n.  Raises
    ZigzagError with the package's messages."""
    degs = eta.circle_degrees()
    if len(degs) != 1:
        raise ZigzagError("staircase element mixes circle degrees")
    j = degs[0]
    position = {F: k for k, F in enumerate(K.missing_faces())}
    by_word = {}
    for lab, c in eta.terms.items():
        I, J, W = lab
        if W not in by_word:
            order = [position.get(F) for F in W]
            union = set().union(*W)
            if (None in order or any(p >= q for p, q in zip(order, order[1:]))
                    or not union <= set(S)):
                raise ZigzagError(f"element leaves the multidegree slice: {lab}")
            T = [v for v in S if v not in union]
            by_word[W] = (T, {v: k for k, v in enumerate(T, 1)}, {})
        T, relabel, b = by_word[W]
        rel = tuple(relabel.get(v, 0) for v in J)
        if (0 in rel or any(p >= q for p, q in zip(rel, rel[1:]))
                or I != tuple(v for v in T if v not in J)):
            raise ZigzagError(f"element leaves the multidegree slice: {lab}")
        b[rel] = c
    phi = {}
    for W, (T, _, b) in by_word.items():
        targets, sources, snf = reference_koszul_block(len(T), j)
        row = {J: t for t, J in enumerate(targets)}
        x = _reference_canonical_solve(snf, {row[J]: c for J, c in b.items()})
        if x is None:
            raise ZigzagError("no integer vertical preimage; input cycle or signs broken")
        for col, c in x.items():
            J = tuple(T[k - 1] for k in sources[col])
            phi[(tuple(v for v in T if v not in J), J, W)] = c
    return BicomplexChain(phi)


def reference_horizontal_diff(K, e):
    """The horizontal differential on labelled triples (I, J, W): every
    missing face F outside W and inside union(W) + I enters W at the front
    and is sorted back by insertion, one swap and one sign change at a time;
    the letters of F outside union(W) leave I."""
    mfs = tuple(sorted(K.missing_faces(), key=_reference_gen_key))
    out = {}
    for (I, J, W), c in e.terms.items():
        union = set().union(*W)
        for F in mfs:
            if F in W or not set(F) <= union | set(I):
                continue
            new, sign = _reference_normalise_word((F,) + W)
            key = (tuple(v for v in I if v not in F or v in union), J, new)
            out[key] = out.get(key, 0) + sign * c
    return BicomplexChain(out)


def reference_koszul_to_taylor(K, z, solve=reference_per_word_solve_vertical):
    """The staircase on labelled triples: per multidegree, `solve(K, S, eta)`
    for a vertical preimage, `reference_horizontal_diff`, repeat until the
    element is a pure Taylor chain; the words are sorted back into generator
    order and the output checked by `taylor_boundary`.  z is a CellChain or
    a BicomplexChain.  Returns (cycle, steps), the steps (kind, element)
    pairs."""
    if isinstance(z, CellChain):
        if not z.supported_in(K):
            raise ZigzagError("chain uses cells outside Z_K")
        start = BicomplexChain.from_cell_chain(z)
    else:
        start = z
    if vertical_diff(start):
        raise ZigzagError("input chain is not a cycle")
    steps = []
    total = taylor_chain(K, {})
    for S, eta in sorted(start.multidegree_components().items()):
        while eta and not eta.is_pure_taylor():
            phi = solve(K, S, eta)
            steps.append(("solve-vertical", phi))
            eta = reference_horizontal_diff(K, phi)
            steps.append(("apply-horizontal", eta))
        part = eta.taylor_part(K)
        if part:
            total = total + part
    if taylor_boundary(K, total):
        raise ZigzagError("staircase output is not a Taylor cycle")
    return total, tuple(steps)


def reference_trace_list(steps):
    """The JSON form of `reference_koszul_to_taylor`'s steps, as
    `ZigzagTrace.to_list` writes the package's trace."""
    return [{"kind": kind, "element": e.to_text()} for kind, e in steps]


def reference_full_slice_solve(K, S, eta):
    """`reference_solve_vertical` as a `solve` for `reference_koszul_to_taylor`."""
    return BicomplexChain(reference_solve_vertical(K, S, eta.terms))


def reference_nested_taylor_cycle(w, K):
    """The closed form on labelled words: every pick of one missing face per
    level factor, sorted into generator order by `_reference_normalise_word`
    and read into K's TaylorChain at the edge (`taylor_chain`).  Raises
    ValueError when a level matches no missing face."""
    levels = nested_levels(w)
    n = len(levels)
    mfs = K.missing_faces()
    factors = []
    for k in range(1, n + 1):
        absorbed = set()
        for j in range(n - k):
            absorbed.update(levels[j])
        target = levels[n - k]
        hits = [F for F in mfs if tuple(sorted(set(F) - absorbed)) == target]
        if not hits:
            raise ValueError(f"no missing face matches level {n - k + 1} leaves {target}")
        factors.append(hits)
    terms = {}
    for pick in product(*factors):
        word, sign = _reference_normalise_word(pick)
        if word is not None:
            terms[word] = terms.get(word, 0) + sign
    return taylor_chain(K, terms)


def all_subsets(m):
    """Every vertex subset of 1..m as a label tuple, by size and then
    lexicographically: the supports the labelled references walk."""
    return (S for k in range(m + 1) for S in combinations(range(1, m + 1), k))


def reference_zk_block(K, S):
    """The whole cellular block of support S: the cells (S - I, I) for every
    face I of K inside S, sorted within each degree."""
    cells = {}
    for I in (f for f in K.faces if set(f) <= set(S)):
        J = tuple(v for v in S if v not in I)
        cells.setdefault(2 * len(I) + len(J), []).append((J, I))
    for cs in cells.values():
        cs.sort()
    return ChainComplex.from_boundary(cells, reference_cell_boundary)


def reference_zk_star_quotient(K, S):
    """The star quotient of S's block on (J, I) labels, built by
    `ChainComplex.from_boundary`: v is the vertex of S in the most faces of
    K_S, the least on ties; the cells (S - I, I) with I + v no face of K,
    sorted within each degree, and `reference_cell_boundary` with the
    targets whose disc set plus v is a face dropped.  The empty S gives its
    whole block, one cell in degree 0."""
    if not S:
        return reference_zk_block(K, S)
    faces = [f for f in K.faces if set(f) <= set(S)]
    v = min(S, key=lambda u: (-sum(u in f for f in faces), u))

    def in_star(I):
        return tuple(sorted(set(I) | {v})) in K.faces

    cells = {}
    for I in faces:
        if not in_star(I):
            J = tuple(u for u in S if u not in I)
            cells.setdefault(2 * len(I) + len(J), []).append((J, I))
    for cs in cells.values():
        cs.sort()
    return ChainComplex.from_boundary(
        cells, lambda cell: {t: c for t, c in reference_cell_boundary(cell).items()
                             if not in_star(t[1])})


def reference_star_vertex(faces, S):
    """The vertex v of S whose star in K_S holds the most faces, the least
    such v on ties, by one list scan per vertex: the package's chooser
    before the cellular table read K's face index or face indicator.  `faces` are the
    bitmasks of the faces of K_S.  The star pairs each face I without v
    with I + v, so it has twice as many faces as contain v, and its
    quotient leaves the fewest cells.  S ascends, so the first greatest
    count is the least such v."""
    counts = [len([f for f in faces if f & b]) for b in [1 << (v - 1) for v in S]]
    return S[counts.index(max(counts))]


def reference_star_cells(S, faces, is_face):
    """The star quotient of S's block on disc masks, with its columns
    written out cell by cell: the package's builder before the cellular
    blocks read `insertion_columns`.

    `faces` are the bitmasks of the faces of K_S in `faces_within`'s order,
    `is_face` holds the bitmasks of every face of K; v is the vertex of S in
    the most faces, the least on ties.  The cell (S - I, I) is the mask f of
    I, of degree |S| + |I|; it lies in the star of v exactly when f & vb or
    f | vb is a face, and the quotient keeps the other cells.  Dropping the
    disc letter with bit b of f gives the target f ^ b with sign
    (-1)^popcount((S & ~f) & (b - 1)); a target in the star is dropped, and
    one that is neither in the quotient nor in the star raises.

    Returns (cells, columns): {degree: [f, ...]} in the order of the cells'
    (J, I) labels, J ascending, and {degree: {column: [(row, sign), ...]}}.
    The empty S gives its whole block, Z in degree 0."""
    if not S:
        return {0: [0]}, {}
    smask = face_mask(S)
    v = min(S, key=lambda u: (-sum(1 for f in faces if f >> (u - 1) & 1), u))
    vb = 1 << (v - 1)
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
                if t | vb in is_face:
                    continue
                i = below.get(t)
                if i is None:
                    raise ValueError(f"boundary of the disc mask {f:b} hits {t:b}, "
                                     "which is not in the target basis")
                column.append((i, -1 if (circles & (b - 1)).bit_count() & 1 else 1))
            if column:
                out[j] = column
        if out:
            columns[d] = out
    return cells, columns


def reference_zk_homology_by_support(K):
    """The cellular table {(S, degree): group}, S the bitmask of a vertex
    subset, over every subset: the nonempty S with a cone point are
    skipped, every other block is built whole (`reference_zk_block`) and
    reduced."""
    if K.m > ZK_MAX_VERTICES:
        raise SizeLimitError(f"Z_K cell enumeration refuses m={K.m} > {ZK_MAX_VERTICES}")
    blocks = ((face_mask(S), reference_zk_block(K, S)) for S in all_subsets(K.m)
              if brute_cone_point(K, S) is None)
    return support_table(blocks, lambda S, d: d)


def reference_mask_lattice(masks):
    """0 and every OR of some of the bitmasks `masks`, as a set, by one
    pass per mask over the unions found so far: the package's lattice
    before its supports were walked level by level (`twin_orbits`)."""
    unions = {0}
    for bits in masks:
        unions |= {u | bits for u in unions}
    return unions


def reference_connected_parts(K):
    """The vertex sets of the connected parts of K's 1-skeleton, as
    bitmasks, by least vertex, read off the missing edges: with every
    singleton a face, u and v are adjacent exactly when {u, v} is no
    missing face, and a search over per-vertex bitsets grows each part.
    The package's rule before it merged the facets."""
    every = (1 << K.m) - 1
    apart = [0] * K.m  # apart[u - 1]: the v with {u, v} a missing face
    for g in K.generators().masks:
        if g.bit_count() == 2:
            low = g & -g
            apart[low.bit_length() - 1] |= g ^ low
            apart[(g ^ low).bit_length() - 1] |= low
    parts, left = [], every
    while left:
        part = frontier = left & -left
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= every & ~apart[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & ~part
            part |= frontier
        parts.append(part)
        left &= ~part
    return parts


def reference_twin_classes(K):
    """The twin classes of two or more vertices of K, each as its vertices,
    ascending, by least vertex: u and v are twins when swapping them maps
    the missing faces (`K.generators()`) onto themselves, tested on the
    generators with u and not v against those with v and not u.  A vertex
    in no missing face, a cone point, is in no class.  The package's rule
    before it read the facets."""
    gens = K.generators()
    containing, masks = gens.containing(), gens.masks
    present = set(masks)
    classes = []  # [index of the first member, mask of the members]
    for u, own in enumerate(containing):
        if not own:
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


def reference_zk_class(K, chain):
    """Class of a cellular cycle, each piece of support S classed in the
    whole block of S; the coordinates run in sorted S order."""
    pieces = {}
    for (J, I), c in labelled_cells(chain.terms).items():
        pieces.setdefault(tuple(sorted(J + I)), {})[(J, I)] = c
    coords, orders = (), ()
    for S, piece in sorted(pieces.items()):
        cls = reference_zk_block(K, S).class_of(chain.degree, piece)
        coords += cls.coords
        orders += cls.orders
    return HomologyClass(coords, orders)


def reduced_ranks(homology):
    """Positive-degree ranks only, the usual wedge-of-spheres fingerprint."""
    return {d: h.rank for d, h in homology.items() if d > 0 and h.rank}


def shuffle_sign(L, J):
    """Sign attached to a simplex L inside the subset J.

    This is the sign of the shuffle sorting (J-L, L) into J, twisted by
    (-1)^(q(q-1)/2) with q = |J-L|.  The twist is what makes the embedding
    of simplicial chains a chain map against the cellular boundary; it is +1
    whenever L fills all of J.
    """
    Lset = set(L)
    rest = [j for j in J if j not in Lset]
    inv = sum(1 for l in L for j in rest if l < j)
    q = len(rest)
    return -1 if (inv + q * (q - 1) // 2) % 2 else 1


def hochster_embed(K, J, simplicial_chain):
    """Embed a simplicial chain on K_J into the cellular chains of Z_K:
    L -> shuffle_sign(L, J) * kappa(J - L, L).

    The chain is keyed by faces of K_J in the original labels; a simplex of
    simplicial degree p-1 lands in cellular degree p + |J|."""
    J = tuple(sorted(set(J)))
    Jset = set(J)
    out = {}
    for L, c in simplicial_chain.items():
        if not c:
            continue
        L = tuple(sorted(L))
        if not set(L) <= Jset:
            raise ValueError(f"simplex {L} is not inside J={J}")
        if L not in K:
            raise ValueError(f"support {L} is not a face of K_J")
        cell = (tuple(j for j in J if j not in set(L)), L)
        out[cell] = out.get(cell, 0) + shuffle_sign(L, J) * c
    return cell_chain(out)


def dense_homology(out_matrix, in_matrix, dim):
    """(rank, torsion) of ker(out)/im(in) from dense matrices."""
    rank_out = len([d for d in dense_snf_diagonal(out_matrix) if d]) if out_matrix else 0
    in_facs = [d for d in dense_snf_diagonal(in_matrix) if d] if in_matrix else []
    rank = dim - rank_out - len(in_facs)
    torsion = tuple(sorted(d for d in in_facs if d > 1))
    return rank, torsion


def simplicial_homology_dense(faces):
    """Reduced homology via dense boundary matrices, degree -> (rank, torsion)."""
    by_dim = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, []).append(tuple(f))
    for d in by_dim:
        by_dim[d].sort()
    def boundary(d):
        rows = by_dim.get(d - 1, [])
        cols = by_dim.get(d, [])
        idx = {f: i for i, f in enumerate(rows)}
        M = [[0] * len(cols) for _ in rows]
        for j, f in enumerate(cols):
            for k in range(len(f)):
                M[idx[f[:k] + f[k + 1:]]][j] = (-1) ** k
        return M
    out = {}
    for d in by_dim:
        rank, torsion = dense_homology(
            boundary(d) if by_dim.get(d - 1) else [],
            boundary(d + 1) if by_dim.get(d + 1) else [],
            len(by_dim[d]))
        if rank or torsion:
            out[d] = (rank, torsion)
    return out


def brute_facets(K):
    """Faces contained in no other face, by testing every pair."""
    out = [f for f in K.faces
           if not any(f != g and set(f) <= set(g) for g in K.faces)]
    return sorted(out, key=lambda f: (len(f), f))


def brute_missing_faces(K):
    """Minimal non-faces straight from the definition, all cardinalities."""
    out = []
    for k in range(1, K.m + 1):
        for cand in combinations(range(1, K.m + 1), k):
            if cand in K.faces:
                continue
            if all(tuple(v for v in cand if v != x) in K.faces for x in cand):
                out.append(cand)
    return sorted(out, key=lambda f: (len(f), f))


def reference_missing_faces_within(K, subset):
    """Missing faces of the full subcomplex K_S in K's labels, ghost
    vertices included, by a scan of K's face masks inside S: a missing face
    less its largest vertex is a face, so each is found once as a face plus
    a vertex of S above its top whose every facet is a face.  The
    package's own rule before its generator table."""
    smask = face_mask(subset)
    bits = [1 << i for i in range(K.m) if smask >> i & 1]
    found = []
    for mask in K.face_masks:
        if mask & ~smask:
            continue
        for bit in bits:
            cand = mask | bit
            if bit <= mask or cand in K.face_masks:
                continue
            if all(cand ^ 1 << i in K.face_masks for i in range(K.m) if mask >> i & 1):
                found.append(tuple(v for v in range(1, K.m + 1) if cand >> (v - 1) & 1))
    return sorted(found, key=lambda f: (len(f), f))


def brute_cone_point(K, S):
    """Least v in S with I + v a face of K for every face I of K inside S,
    straight from the definition of a cone; None when there is none."""
    inside = [f for f in K.faces if set(f) <= set(S)]
    for v in sorted(S):
        if all(tuple(sorted(set(f) | {v})) in K.faces for f in inside):
            return v
    return None


def brute_substitute_faces(slot, parts):
    """Faces of the substitution via the defining set formula."""
    offsets = []
    off = 0
    for p in parts:
        offsets.append(off)
        off += p.m
    faces = set()
    for slot_face in slot.faces:
        pools = []
        for s in slot_face:
            pools.append([tuple(v + offsets[s - 1] for v in f)
                          for f in parts[s - 1].faces if f])
        stack = [()]
        for pool in pools:
            stack = [acc + f for acc in stack for f in pool]
        for acc in stack:
            faces.add(tuple(sorted(acc)))
    faces.add(())
    return faces


@dataclass(frozen=True)
class TupleComplex:
    """A complex as its vertex count and its set of face tuples, the store
    the package kept before its face bitmasks; the brute-force functions
    above read it as they read a SimplicialComplex."""

    m: int
    faces: frozenset


def reference_from_facets(m, facets):
    """Every subset of every facet, every singleton and the empty face."""
    faces = {(), *((v,) for v in range(1, m + 1))}
    for f in facets:
        f = tuple(sorted(f))
        faces.update(c for k in range(len(f) + 1) for c in combinations(f, k))
    return TupleComplex(m, frozenset(faces))


def reference_from_json_dict(data, max_vertices=None):
    """The JSON reader before its one pass over the labels: m, every
    label's type and `max_vertices` checked in turn, then the bitset bound,
    then each facet through `face` and a range check, and the complex
    built from its face list (`reference_from_facets`); every refusal with
    the package's text."""
    m, facets = data["m"], data["facets"]
    if type(m) is not int or m < 0:
        raise ValueError(f"m must be a nonnegative integer, not {m!r}")
    for f in facets:
        for v in f:
            if type(v) is not int:
                raise ValueError(f"vertex labels must be integers, not {v!r}")
    if max_vertices is not None and m > max_vertices:
        raise SizeLimitError(f"complex has {m} vertices, above the bound {max_vertices}")
    if m > 64:
        raise SizeLimitError(f"m={m} exceeds the bitset bound of 64")
    checked = []
    for f in facets:
        f = face(f)
        if f and f[-1] > m:
            raise ValueError(f"label {f[-1]} out of range 1..{m}")
        checked.append(f)
    return SimplicialComplex(m, reference_from_facets(m, checked).faces)


def reference_boundary(K):
    """The faces of K that are no facet (`brute_facets`), the empty face kept."""
    facets = set(brute_facets(K))
    return TupleComplex(K.m, frozenset(f for f in K.faces if f not in facets) | {()})


def reference_join(K1, K2):
    """Every face of K1 followed by every face of K2 shifted past K1's vertices."""
    return TupleComplex(K1.m + K2.m, frozenset(
        f1 + tuple(v + K1.m for v in f2) for f1 in K1.faces for f2 in K2.faces))


def reference_delta_w(w):
    """(bd_Delta(w), its top sphere or None) as TupleComplexes, built on
    face tuples as `delta_w` builds them: the boundary of a simplex with
    the sub-brackets' complexes and one point per leaf substituted, and the
    join of the children's spheres and the boundary of the leaf simplex."""
    subs = [reference_delta_w(c) for c in w.bracket_children()]
    p = len(w.leaf_children())
    point = reference_from_facets(1, [(1,)])
    parts = [sub for sub, _ in subs] + [point] * p
    slot = reference_boundary(reference_from_facets(len(parts), [range(1, len(parts) + 1)]))
    complex_ = TupleComplex(sum(q.m for q in parts), frozenset(brute_substitute_faces(slot, parts)))
    spheres = [sphere for _, sphere in subs]
    if (spheres and not p) or None in spheres:
        return complex_, None
    if p:
        spheres.append(reference_boundary(reference_from_facets(p, [range(1, p + 1)])))
    sphere = spheres[0]
    for other in spheres[1:]:
        sphere = reference_join(sphere, other)
    return complex_, sphere


def reference_trivialising_join(w):
    """The join bd(w_1) * ... * bd(w_q) * simplex(leaves) of a product
    [w_1,...,w_q, leaves] with single w_j, built, with the leaf map onto
    consecutive blocks of its vertices."""
    complex_ = None
    leaf_map = {}
    blocks = [(c.leaves(), simplex_boundary) for c in w.bracket_children()]
    if w.leaf_children():
        blocks.append((tuple(sorted(w.leaf_children())), simplex))
    for ls, build in blocks:
        piece = build(len(ls))
        for i, l in enumerate(ls):
            leaf_map[l] = (complex_.m if complex_ else 0) + i + 1
        complex_ = piece if complex_ is None else join(complex_, piece)
    return complex_, leaf_map


def reference_sits_in(L, leaf_map, K):
    """Does the built complex L sit in K with its vertex leaf_map[l] at l,
    checked face by face (`is_subcomplex`)?  With `delta_w(w)` this is
    whether w is defined on K, with `reference_trivialising_join(w)` whether
    the product is trivial."""
    if max(leaf_map) > K.m:
        return False
    return is_subcomplex(L, K, {v: l for l, v in leaf_map.items()})


def brute_order_is_shifted(K, order):
    """Is every face, with any vertex replaced by a later one of `order`
    outside it, still a face?"""
    pos = {v: i for i, v in enumerate(order)}
    for f in K.faces:
        for v in f:
            for u in range(1, K.m + 1):
                if u in f or pos[u] <= pos[v]:
                    continue
                if tuple(sorted([x for x in f if x != v] + [u])) not in K.faces:
                    return False
    return True


def brute_is_shifted(K):
    """The witnessing orders by raw permutation search, lazily, in
    lexicographic order."""
    return (perm for perm in permutations(range(1, K.m + 1))
            if brute_order_is_shifted(K, perm))


def reference_shifted_wedge_pairs(K, order):
    """The (J, I) pairs of the shifted wedge basis by a scan of every vertex
    subset J: each missing face I of K_J holding J's order-maximal vertex."""
    rank = {v: i for i, v in enumerate(order)}
    pairs = []
    for k in range(1, K.m + 1):
        for J in combinations(range(1, K.m + 1), k):
            top = max(J, key=lambda v: rank[v])
            pairs.extend((J, I) for I in K.missing_faces_within(J) if top in I)
    return pairs


def _factorise(n):
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def reference_direct_sum(a, b):
    """Direct sum of homology groups by trial-division factorisation into
    primary parts, regrouped into invariant factors."""
    primary = {}
    for group in (a, b):
        for f in group.torsion:
            for p, e in _factorise(f).items():
                primary.setdefault(p, []).append(e)
    chains = []
    for p, exps in primary.items():
        exps.sort(reverse=True)
        for k, e in enumerate(exps):
            while len(chains) <= k:
                chains.append(1)
            chains[k] *= p ** e
    chains.sort()
    return HomologyGroup(a.rank + b.rank, tuple(chains))


def _reference_lcm(exps, m):
    return tuple(max((e[v] for e in exps), default=0) for v in range(m))


def _reference_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def taylor_module_resolution(ideal, bound=None):
    """Truncated module-version Taylor complex as one ChainComplex.

    Degree s has basis (beta, J): beta a multidegree below the bound with
    lcm(J) dividing it; the differential drops one generator at a time and
    keeps the multidegree.  For square-free ideals the natural bound is the
    square-free cube; otherwise the lcm of all generators.
    """
    if bound is None:
        bound = (tuple(1 for _ in range(ideal.m)) if all(x <= 1 for g in ideal.gens for x in g)
                 else _reference_lcm(ideal.gens, ideal.m))
    betas = [tuple(b) for b in product(*(range(x + 1) for x in bound))]
    basis = {}
    for s in range(len(ideal.gens) + 1):
        for J in combinations(range(len(ideal.gens)), s):
            lc = _reference_lcm([ideal.gens[j] for j in J], ideal.m)
            for beta in betas:
                if _reference_divides(lc, beta):
                    basis.setdefault(s, []).append((beta, J))
    for s in basis:
        basis[s].sort()

    def boundary(label):
        beta, J = label
        return {(beta, J[:n] + J[n + 1:]): -1 if n % 2 else 1 for n in range(len(J))}
    return ChainComplex.from_boundary(basis, boundary)


def reference_resolution_failures(ideal, bound=None):
    """Where the whole module Taylor complex in the box `bound` fails to
    resolve S/ideal, [(s, group text)]: homology in every index s >= 1 must
    vanish, and H_0 must be Z exactly at the multidegrees of the box that no
    generator divides.  The complex splits by multidegree, so one homology
    per index s covers every slice at s."""
    C = taylor_module_resolution(ideal, bound)
    failures = [(s, str(h)) for s, h in sorted(C.homology_all().items()) if s >= 1]
    h0 = C.homology(0)
    expected_rank = sum(1 for beta, _ in C.basis[0]
                        if not any(_reference_divides(g, beta) for g in ideal.gens))
    if h0.torsion or h0.rank != expected_rank:
        failures.append((0, f"H_0 = {h0}, expected Z^{expected_rank}"))
    return failures


def taylor_module_differential(gens, m):
    """Symbolic Taylor differential over a raw list of exponent vectors of
    length m.

    Entries are keyed ((target index set), (source index set)) and valued
    (sign, quotient exponent vector), quotient = lcm(J) / lcm(J minus j).
    """
    t = len(gens)
    entries = {}
    for s in range(1, t + 1):
        for J in combinations(range(t), s):
            lc = _reference_lcm([gens[j] for j in J], m)
            for n, j in enumerate(J):
                rest = J[:n] + J[n + 1:]
                lr = _reference_lcm([gens[r] for r in rest], m)
                quotient = tuple(a - b for a, b in zip(lc, lr))
                sign = -1 if n % 2 else 1
                entries[(rest, J)] = (sign, quotient)
    return entries


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
    m = len(last)
    short = gens[:-1]
    reduced = _reduced_gens(short, last)
    d_short = taylor_module_differential(short, m)
    d_reduced = taylor_module_differential(reduced, m)
    d_full = taylor_module_differential(gens, m)
    # cone basis: ("plain", J) in level |J|, ("bar", J) in level |J|+1
    cone = {}
    for (rest, J), (sign, q) in d_short.items():
        cone[(("plain", rest), ("plain", J))] = (sign, q)
    for s in range(0, t):
        for J in combinations(range(t - 1), s):
            lc = _reference_lcm([gens[j] for j in J] + [last], m)
            lj = _reference_lcm([gens[j] for j in J], m)
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


def random_complex(m, rng, max_facet_count=None):
    count = max_facet_count or 2 * m
    facets = []
    for _ in range(rng.randint(1, count)):
        k = rng.randint(1, m)
        facets.append(tuple(sorted(rng.sample(range(1, m + 1), k))))
    return SimplicialComplex.from_facets(m, facets)


def random_graph_complex(m, rng):
    """A random graph on 1..m with some of its triangles filled."""
    edges = [e for e in combinations(range(1, m + 1), 2) if rng.random() < 0.6]
    edge_set = set(edges)
    triangles = [t for t in combinations(range(1, m + 1), 3)
                 if set(combinations(t, 2)) <= edge_set and rng.random() < 0.5]
    return SimplicialComplex.from_facets(m, edges + triangles)


def random_shifted_complex(m, rng):
    """Random complex closed under replacing a vertex by a larger one, so it
    is shifted for the natural order."""
    faces = {(), *((i,) for i in range(1, m + 1))}
    for _ in range(rng.randint(2, 2 * m)):
        k = rng.randint(1, m - 1)
        faces.add(tuple(sorted(rng.sample(range(1, m + 1), k))))
    changed = True
    while changed:
        changed = False
        for f in list(faces):
            for v in f:
                sub = tuple(x for x in f if x != v)
                if sub not in faces:
                    faces.add(sub)
                    changed = True
                for u in range(v + 1, m + 1):
                    if u not in f:
                        g = tuple(sorted(sub + (u,)))
                        if g not in faces:
                            faces.add(g)
                            changed = True
    return SimplicialComplex(m, faces)


RP2_FACETS = [(1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
              (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6)]


def random_bracket(rng, leaves):
    """A random bracket on the labels `leaves` in which every bracket has a
    leaf of its own, so every sub-product carries a canonical chain; two
    labels, and about two in five larger sets, make one single product."""
    leaves = list(leaves)
    if len(leaves) <= 2 or rng.random() < 0.4:
        return bracket([leaf(v) for v in leaves])
    rng.shuffle(leaves)
    own = rng.randint(1, len(leaves) - 2)
    kids = [leaf(v) for v in leaves[:own]]
    rest = leaves[own:]
    while rest:
        k = len(rest) if len(rest) <= 3 else rng.randint(2, len(rest) - 2)
        kids.append(random_bracket(rng, rest[:k]))
        rest = rest[k:]
    return bracket(kids)


def random_product_pair(rng, max_vertices=8, max_leaves=7):
    """(K, w): a `random_bracket` w on random vertices of 1..m and K its
    canonical complex bd_Delta(w), with every vertex of 1..m a face, and
    then one of: nothing more, one facet fewer, a few random faces, an RP^2
    on six vertices (the leaves where w has six or more), the face of every
    leaf but one of each sub-product with w's own leaves (the trivialising
    join where the sub-products are single), or the leaf set of one
    sub-product with a few random faces."""
    m = rng.randint(4, max_vertices)
    w = random_bracket(rng, rng.sample(range(1, m + 1), rng.randint(2, min(m, max_leaves))))
    dw = delta_w(w)
    label = {v: l for l, v in dw.leaf_map.items()}
    facets = [tuple(label[v] for v in f) for f in dw.complex.facets]
    subs = w.bracket_children()
    kind = rng.choice(["delta", "minus", "extra", "rp2", "join", "inner"])
    if kind == "minus" and len(facets) > 1:
        facets.remove(rng.choice(facets))
    elif kind == "extra":
        facets += [tuple(rng.sample(range(1, m + 1), rng.randint(2, 4)))
                   for _ in range(rng.randint(1, 3))]
    elif kind == "rp2" and m >= 6:
        on = w.leaves() if len(w.leaves()) >= 6 else range(1, m + 1)
        verts = rng.sample(on, 6)
        facets += [tuple(verts[v - 1] for v in f) for f in RP2_FACETS]
    elif kind == "join":
        facets.append(tuple(v for c in subs for v in c.leaves()[1:]) + w.leaf_children())
    elif kind == "inner" and subs:
        facets.append(rng.choice(subs).leaves())
        facets += [tuple(rng.sample(range(1, m + 1), rng.randint(2, 3)))
                   for _ in range(rng.randint(0, 2))]
    return SimplicialComplex.from_facets(m, facets + [(v,) for v in range(1, m + 1)]), w


# -- closed forms ---------------------------------------------------------------

CLOSED_FORM_FAMILIES = ("points", "polygon", "cross-polytope", "disjoint-edges",
                        "complete-graph", "simplex-boundary", "simplex")


def closed_form_family(family, n):
    """K of a `closed_form_homology` family: n isolated points, the n-gon
    (n >= 4), the join of n copies of S^0 on the pairs (2i - 1, 2i), the n
    disjoint edges (2i - 1, 2i), the complete graph on n vertices,
    bd(simplex(n)) (n >= 2) or simplex(n)."""
    if family == "points":
        return SimplicialComplex.from_facets(n, [])
    if family == "complete-graph":
        return SimplicialComplex.from_facets(n, list(combinations(range(1, n + 1), 2)))
    if family == "disjoint-edges":
        return SimplicialComplex.from_facets(2 * n, [(2 * i - 1, 2 * i) for i in range(1, n + 1)])
    if family == "polygon":
        return SimplicialComplex.from_facets(n, [(i, i % n + 1) for i in range(1, n + 1)])
    if family == "cross-polytope":
        return SimplicialComplex.from_facets(
            2 * n, [tuple(2 * i + 1 + b for i, b in enumerate(bits))
                    for bits in product((0, 1), repeat=n)])
    return {"simplex-boundary": simplex_boundary, "simplex": simplex}[family](n)


def closed_form_homology(family, n):
    """{degree: rank} of H_*(Z_K), nonzero degrees only (every group is
    free), from the known homotopy types, with no chain complex built:

    - n isolated points: Z_K is the wedge over 2 <= k <= n of (k-1) C(n,k)
      spheres S^{k+1} (Grbic-Theriault);
    - the n-gon: Z_K is the connected sum over 3 <= k <= n-1 of (k-2)
      C(n-2,k-1) copies of S^k x S^{n+2-k} (McGavran);
    - the join of n copies of S^0: Z_K is the product of the Z_K of its
      factors, (S^3)^n, with rank C(n, k) in degree 3k;
    - n disjoint edges, by Hochster: a full subcomplex on a whole edges and
      b single vertices of b other edges, chosen in C(n, a) C(n - a, b) 2^b
      ways, is a + b points, so it adds rank a + b - 1 in degree 2a + b + 1;
    - the complete graph on n vertices, by Hochster: every full subcomplex
      on j >= 3 vertices is the complete graph on j, a graph with
      C(j - 1, 2) independent cycles, so it adds rank C(n, j) C(j - 1, 2) in
      degree j + 2;
    - bd(simplex(n)): Z_K = S^{2n-1}; simplex(n): Z_K = D^{2n}."""
    ranks = {0: 1}
    if family == "points":
        for k in range(2, n + 1):
            ranks[k + 1] = (k - 1) * comb(n, k)
    elif family == "cross-polytope":
        for k in range(1, n + 1):
            ranks[3 * k] = comb(n, k)
    elif family == "disjoint-edges":
        for a in range(n + 1):
            for b in range(max(2 - a, 0), n - a + 1):
                d = 2 * a + b + 1
                ranks[d] = ranks.get(d, 0) + comb(n, a) * comb(n - a, b) * 2 ** b * (a + b - 1)
    elif family == "complete-graph":
        for j in range(3, n + 1):
            ranks[j + 2] = comb(n, j) * comb(j - 1, 2)
    elif family == "polygon":
        ranks[n + 2] = 1
        for k in range(3, n):
            copies = (k - 2) * comb(n - 2, k - 1)
            for d in (k, n + 2 - k):
                ranks[d] = ranks.get(d, 0) + copies
    elif family == "simplex-boundary":
        ranks[2 * n - 1] = 1
    elif family != "simplex":
        raise ValueError(f"no closed form for {family!r}")
    return {d: r for d, r in sorted(ranks.items()) if r}
