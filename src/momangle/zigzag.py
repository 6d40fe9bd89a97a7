"""The Koszul-to-Taylor staircase.

The bicomplex has basis triples (I, J, W): disc letters I, circle letters
J, and an exterior word W of distinct missing faces.  In a square-free
multidegree the three pieces partition a fixed vertex subset S; I need not
be a face of K, the resolution side being cofree.  The two differentials

    vertical   (I, J, W) -> sum over i in I of
                 (-1)^{#{j in J : j < i}} (I - i, J + i, W)
    horizontal (I, J, W) -> sum over missing faces F outside W with
                 F - union(W) inside I of
                 sign(F, W) (I - (F - union W), J, W + F)

commute (the horizontal sign counts generators of W below F, exactly the
front-insertion sign of the Taylor complex), which is the form in which the
staircase equations are solved: starting from a cellular cycle, alternately
take a vertical preimage and push it horizontally.  The circle degree |J|
drops by one per round, and once it reaches zero the element is forced to
be a pure Taylor cycle in the same Cotor class.  Each preimage is the
canonical solution of an exact integer solve, so traces are reproducible
bit for bit; the one remaining freedom is the global sign of the answer.

The staircase (`koszul_to_taylor`) runs on bitmasks, one slice S at a
time.  A term is keyed (J, W): J the bitmask of its circle letters, W the
bitmask of its word's generator indices (bit q for the q-th missing face
of K, as in the Taylor table).  The disc letters are not stored: I is
S - J - union(W).  A vertical preimage is solved one word at a time against
the cached Koszul block of T_W = S - union(W), whose bits move onto the
bits of 1..n and back; the horizontal step inserts generator bit b into W
with `exactalg.insertion_sign`, (-1)^popcount(W & (b - 1)), and a disc bit
i joins J by the same rule, so `exactalg.insertion_columns`, the builder
of the Taylor blocks and the cellular star quotients, builds the Koszul
blocks.
Labels are built at the edges only: the input chain is read off its
labels, the output cycle is checked on masks and then labelled, and a trace
step keeps its masks until its element is asked for.  `vertical_diff` and
`horizontal_diff` are the labelled forms, for tests and callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .complexes import (SignedSum, _is_canonical, face_mask, mask_face, signed_sum_text,
                        word_text)
from .exactalg import _column_matrix, insertion_columns, insertion_sign, smith_normal_form
from .moment_angle import CellChain, cell_letters
from .taylor import (TaylorChain, generator_masks, index_boundary, index_union, index_word,
                     taylor_boundary, taylor_cycle_is_boundary, word_index)


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
        return cls({(I, J, ()): c for (J, I), c in chain.terms.items()})

    def circle_degrees(self):
        return sorted({len(J) for (_, J, _) in self.terms})

    def is_pure_taylor(self):
        return all(not I and not J for (I, J, _) in self.terms)

    def taylor_part(self):
        return TaylorChain({W: c for (I, J, W), c in self.terms.items()
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
        return signed_sum_text(
            ("*".join(cell_letters(J, I) + ["w" + word_text(F) for F in W]), c)
            for (I, J, W), c in sorted(self.terms.items()))


def vertical_diff(e):
    """Koszul differential, extended identically over the Taylor word: the
    cellular boundary of each term's cell (J, I)."""
    out = {}
    for (I, J, W), c in e.terms.items():
        for (J2, I2), term in CellChain({(J, I): c}).boundary().terms.items():
            out[(I2, J2, W)] = out.get((I2, J2, W), 0) + term
    return BicomplexChain(out)


def horizontal_diff(K, e):
    """Taylor differential: absorb a missing face out of the disc letters.

    W is a basis word (factors in generator order), read as its index
    bitmask (`word_index`); a missing face F outside W and inside union(W) + I
    enters it with `insertion_sign`, and the letters of F outside union(W)
    leave I."""
    gens, masks = generator_masks(K)
    position = {F: q for q, F in enumerate(gens)}
    out = {}
    for (I, J, W), c in e.terms.items():
        word, disc = word_index(W, position), face_mask(I)
        union = index_union(word, masks)
        for q, mask in enumerate(masks):
            b = 1 << q
            if not word & b and not mask & ~(union | disc):
                key = (mask_face(disc & ~(mask & ~union)), J, index_word(word | b, gens))
                out[key] = out.get(key, 0) + insertion_sign(word, b) * c
    return BicomplexChain(out)


class ZigzagStep:
    """One staircase step: its kind, "solve-vertical" or "apply-horizontal",
    and its element.  The staircase hands over the element on its slice's
    masks, (S, {(J, W): coeff}, (gens, masks, names)), labelled when
    `element` or `==` asks for it and written out from the masks by
    `to_text`; a BicomplexChain is kept as it is."""

    __slots__ = ("kind", "_element", "_masks")

    def __init__(self, kind, element):
        self.kind = kind
        labelled = isinstance(element, BicomplexChain)
        self._element = element if labelled else None
        self._masks = None if labelled else element

    @property
    def element(self):
        if self._element is None:
            self._element = _labelled(*self._masks)
        return self._element

    def to_text(self):
        if self._element is None:
            return _text(*self._masks)
        return self._element.to_text()

    def __eq__(self, other):
        return (isinstance(other, ZigzagStep) and self.kind == other.kind
                and self.element == other.element)

    __hash__ = None

    def __repr__(self):
        return f"ZigzagStep({self.kind!r}, {self.element!r})"


@dataclass(frozen=True)
class ZigzagTrace:
    steps: tuple

    def to_list(self):
        return [{"kind": s.kind, "element": s.to_text()} for s in self.steps]


class ZigzagError(RuntimeError):
    """A staircase solve failed: the input was not a cycle or a sign
    convention is broken; either way this must not pass silently."""


@lru_cache(maxsize=32)
def _koszul_block(n, j):
    """The vertical block of one word whose T_W is relabelled onto 1..n,
    from circle degree j - 1 to j: the Koszul matrix of the simplex on 1..n.
    A basis triple of the block is named by the bitmask of its circle letters
    J alone (bit k for letter k + 1; the disc letters are the rest of 1..n),
    sources and rows in `combinations` order, and `insertion_columns`
    inserts the disc letters.  Returns (row of each target J, source Js in
    column order, Smith form with transforms)."""
    def circles(k):
        return [sum(1 << i for i in c) for c in combinations(range(n), k)] if k >= 0 else []

    sources, targets = circles(j - 1), circles(j)
    _, columns = insertion_columns(sources + targets, (1 << n) - 1)
    matrix = _column_matrix(len(targets), len(sources), columns.get(1 - j, {}))
    return {J: t for t, J in enumerate(targets)}, sources, smith_normal_form(matrix)


# -- the staircase on masks ------------------------------------------------------

def _bits(mask):
    """The positions of the set bits of a bitmask, ascending from 0."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _masked(gens, masks, terms, S=None):
    """Labelled terms {(I, J, W): coeff} as {S: {(J, W): coeff}}, S the
    support of each term, J its circle bitmask and W the index bitmask of
    its word.  A term must be a basis triple: I and J increasing, W distinct
    generators in generator order whose union meets neither, and, when the
    bitmask S is given, I + J + union(W) = S."""
    position = {F: q for q, F in enumerate(gens)}
    out = {}
    for lab, c in terms.items():
        I, J, W = lab
        qs = [position.get(F, -1) for F in W]
        basis = (_is_canonical(I) and _is_canonical(J) and -1 not in qs
                 and qs == sorted(set(qs)))
        word = sum(1 << q for q in qs) if basis else 0
        union = index_union(word, masks)
        disc, circle = face_mask(I), face_mask(J)
        if (not basis or (disc | circle) & union
                or S is not None and disc | circle | union != S):
            raise ZigzagError(f"element leaves the multidegree slice: {lab}")
        out.setdefault(disc | circle | union, {})[(circle, word)] = c
    return out


def _labels(S, terms, generators):
    """The label (I, J, W) of each of the slice S's terms {(J, W): coeff},
    with its coefficient and the generator indices of W."""
    gens, masks, _ = generators
    for (J, W), c in terms.items():
        qs = _bits(W)
        I = S & ~J & ~index_union(W, masks)
        yield (mask_face(I), mask_face(J), tuple(gens[q] for q in qs)), c, qs


def _labelled(S, terms, generators):
    """The BicomplexChain of the slice S's terms {(J, W): coeff}."""
    return BicomplexChain({lab: c for lab, c, _ in _labels(S, terms, generators)})


def _text(S, terms, generators):
    """`BicomplexChain.to_text` of the slice S's terms, each generator's
    name written once per staircase."""
    names = generators[2]
    return signed_sum_text(
        ("*".join(cell_letters(J, I) + [names[q] for q in qs]), c)
        for (I, J, _), c, qs in sorted(_labels(S, terms, generators)))


def _is_vertical_cycle(S, terms, masks):
    """Does the vertical differential kill the slice S's terms?  Disc bit i
    enters the circle bitmask J with `insertion_sign`, the sign of
    `cell_boundary`."""
    out = {}
    for (J, W), c in terms.items():
        for q in _bits(S & ~J & ~index_union(W, masks)):
            i = 1 << q
            out[(J | i, W)] = out.get((J | i, W), 0) + insertion_sign(J, i) * c
    return not any(out.values())


def _vertical_preimage(S, eta, masks):
    """phi with vertical(phi) = eta inside the slice S, on masks.

    The vertical differential keeps the word W and moves disc letters of
    T_W = S - union(W) into circles, so the slice is block diagonal with one
    Koszul block per word.  Each word of eta is solved on its own, against
    the cached block of (|T_W|, j), the bits of J moved to and from the
    relabelled 1..n by walking the bits of T_W; words absent from eta have
    the zero preimage."""
    degrees = {J.bit_count() for J, _ in eta}
    if len(degrees) != 1:
        raise ZigzagError("staircase element mixes circle degrees")
    j = degrees.pop()
    by_word = {}
    for (J, W), c in eta.items():
        by_word.setdefault(W, {})[J] = c
    phi = {}
    for W, b in by_word.items():
        bits = [1 << q for q in _bits(S & ~index_union(W, masks))]
        rows, sources, snf = _koszul_block(len(bits), j)
        x = snf.solve({rows[sum(1 << k for k, bit in enumerate(bits) if J & bit)]: c
                       for J, c in b.items()})
        if x is None:
            raise ZigzagError("no integer vertical preimage; input cycle or signs broken")
        for col, c in x.items():
            if c:
                phi[(sum(bits[k] for k in _bits(sources[col])), W)] = c
    return phi


def _horizontal(S, phi, masks):
    """The horizontal differential inside the slice S, on masks: generator
    bit b enters W when its face lies in union(W) + I = S - J, with
    `insertion_sign`; the letters it takes from I need no bookkeeping, I
    being S - J - union(W)."""
    inside = [(1 << q, mask) for q, mask in enumerate(masks) if not mask & ~S]
    out = {}
    for (J, W), c in phi.items():
        for b, mask in inside:
            if not W & b and not mask & J:
                out[(J, W | b)] = out.get((J, W | b), 0) + insertion_sign(W, b) * c
    return {key: c for key, c in out.items() if c}


def koszul_to_taylor(K, z):
    """Translate a cellular cycle of Z_K into a Taylor cycle of the same
    Cotor class, returning (cycle, trace).

    Works one square-free multidegree at a time, on masks: solve a vertical
    preimage, apply the horizontal differential, repeat until the circle
    letters are exhausted; the remaining element is a pure Taylor cycle,
    checked to be one before it is labelled.
    """
    gens, masks = generator_masks(K)
    if isinstance(z, CellChain):
        if not z.supported_in(K):
            raise ZigzagError("chain uses cells outside Z_K")
        terms = {(I, J, ()): c for (J, I), c in z.terms.items()}
    else:
        terms = z.terms
    slices = _masked(gens, masks, terms)
    if not all(_is_vertical_cycle(S, eta, masks) for S, eta in slices.items()):
        raise ZigzagError("input chain is not a cycle")
    generators = (gens, masks, ["w" + word_text(F) for F in gens])
    steps = []
    total = {}
    for S in sorted(slices, key=mask_face):
        eta = slices[S]
        while eta and any(J or index_union(W, masks) != S for J, W in eta):
            phi = _vertical_preimage(S, eta, masks)
            steps.append(ZigzagStep("solve-vertical", (S, phi, generators)))
            eta = _horizontal(S, phi, masks)
            steps.append(ZigzagStep("apply-horizontal", (S, eta, generators)))
        total.update({W: c for (_, W), c in eta.items()})
    if index_boundary(total, masks):
        raise ZigzagError("staircase output is not a Taylor cycle")
    cycle = TaylorChain({index_word(W, gens): c for W, c in total.items()})
    return cycle, ZigzagTrace(tuple(steps))


def classes_equal(K, t1, t2):
    """True iff the two Taylor cycles differ by a boundary."""
    for t in (t1, t2):
        if taylor_boundary(K, t):
            raise ValueError("classes_equal expects cycles")
    if t1.terms and t2.terms and t1.degree != t2.degree:
        raise ValueError("cycles have different total degrees")
    if t1.terms and t2.terms and t1.s != t2.s:
        # the boundary preserves the factor count, so cycles in different
        # slots agree only when both vanish in homology
        return taylor_cycle_is_boundary(K, t1) and taylor_cycle_is_boundary(K, t2)
    return taylor_cycle_is_boundary(K, t1 - t2)


def classes_equal_up_to_sign(K, t1, t2):
    return classes_equal(K, t1, t2) or classes_equal(K, t1, -t2)
