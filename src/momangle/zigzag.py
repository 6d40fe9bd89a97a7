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
be a pure Taylor cycle in the same Cotor class.  Each preimage is fixed
by one rule, the contracting homotopy of the vertical block, so traces are
reproducible bit for bit; the one remaining freedom is the global sign of
the answer.

The staircase (`koszul_to_taylor`) runs on bitmasks, one slice S at a
time.  A term is keyed (J, W): J the bitmask of its circle letters, W
the bitmask of its word's generator indices on K's
`complexes.Generators` (bit q for the q-th missing face of K, as in the
Taylor table).  The disc letters are not stored: I is S - J - union(W).
Both differentials are the package's one chain insertion,
`exactalg.insert_bits`, with the parity (-1)^popcount(x & (b - 1)): the
horizontal step inserts the generators inside S and off J,
`within(S & ~J)`, into W, and the vertical step the disc bits into J.
The vertical block of a word W is the Koszul complex of the simplex on
T_W = S - union(W), which is exact, and a preimage is its contracting
homotopy: the top bit of T_W taken out of J (`_homotopy`).  It
equals the canonical solution of the Smith form on the Koszul matrix,
so no matrix is built, and the one check that the preimage maps back is
what refuses an input that is no cycle or a broken sign.
No label is built on the way: the input cell chain's (J, I) masks are
sliced as they are (S = J | I, the word empty), the returned cycle is a
`TaylorChain` on the slices' last words as they are, a cycle by the rule
a slice leaves the loop on (`_staircase`), and a trace step keeps its
slice's masks, written out from per-vertex letter tables only for its
text.  The labelled bicomplex on triples, with both differentials and
Smith-form-solved Koszul blocks of its own, is the reference the tests
hold the staircase to (`tests/oracles.py`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

from .complexes import mask_face, signed_sum_text
from .exactalg import insert_bits, insertion_sign
from .taylor import TaylorChain, taylor_boundary, taylor_cycle_is_boundary


class ZigzagStep:
    """One staircase step: its kind, "solve-vertical" or "apply-horizontal",
    and its element on its slice's masks: the bitmask S of the slice and the
    terms {(J, W): coeff}.  `to_text` writes the element out from the
    masks."""

    __slots__ = ("kind", "S", "terms", "_generators")

    def __init__(self, kind, S, terms, generators):
        self.kind, self.S, self.terms, self._generators = kind, S, terms, generators

    def to_text(self):
        return _text(self.S, self.terms, self._generators)


@dataclass(frozen=True)
class ZigzagTrace:
    steps: tuple

    def to_list(self):
        return [{"kind": s.kind, "element": s.to_text()} for s in self.steps]


class ZigzagError(RuntimeError):
    """A staircase solve failed: the input was not a cycle or a sign
    convention is broken; either way this must not pass silently."""


# -- the staircase on masks ------------------------------------------------------

@lru_cache(maxsize=32)
def _letters(n):
    """The letter tables of the vertices 1..n, each at index v - 1: the
    disc letters `D{v}` and the circle letters `S{v}`."""
    return tuple(f"D{v}" for v in range(1, n + 1)), tuple(f"S{v}" for v in range(1, n + 1))


def _text(S, terms, gens):
    """The slice S's terms {(J, W): coeff} as a signed sum of words in the
    letters of I and J and the names of W's generators, sorted by the label
    (I, J, W).  One walk of W's bits gives its faces, names and union, and
    one walk of the bits of J + I, in vertex order, gives the letters from
    the letter tables and the labels I and J."""
    discs, circles = _letters(S.bit_length())
    faces, names, masks, rows = gens.faces, gens.names, gens.masks, []
    for (J, W), c in terms.items():
        word, letters, union, rest = [], [], 0, W
        while rest:
            low = rest & -rest
            rest ^= low
            q = low.bit_length() - 1
            word.append(faces[q])
            letters.append("w" + names[q])
            union |= masks[q]
        I = S & ~J & ~union
        discs_, circles_, cell, rest = [], [], [], J | I
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length()
            if low & I:
                discs_.append(v)
                cell.append(discs[v - 1])
            else:
                circles_.append(v)
                cell.append(circles[v - 1])
        rows.append(((tuple(discs_), tuple(circles_), tuple(word)), "*".join(cell + letters), c))
    rows.sort(key=itemgetter(0))
    return signed_sum_text((text, c) for _, text, c in rows)


def _by_word(terms):
    """The terms {(J, W): coeff} grouped by their word, {W: {J: coeff}}."""
    by_word = {}
    for (J, W), c in terms.items():
        by_word.setdefault(W, {})[J] = c
    return by_word


def _vertical(S, terms, gens):
    """The vertical differential inside the slice S, on masks: the disc bits
    of each word W, S - union(W) less J, enter the circle bitmask J by
    `exactalg.insert_bits`, the insertion of `cell_boundary`, one call per
    word."""
    out = {}
    for W, circles in _by_word(terms).items():
        for J, c in insert_bits(circles, S & ~gens.union(W)).items():
            if c:
                out[(J, W)] = c
    return out


def _homotopy(S, terms, gens):
    """The contracting homotopy h of the vertical differential d inside the
    slice S, on masks: on each word W, the top bit t of T_W = S - union(W)
    leaves every circle bitmask J that holds it, h(J) =
    `insertion_sign`(J - t, t) (J - t), and a J without t goes to 0.

    The vertical block of W is the Koszul complex of the simplex on T_W:
    d lets the bits of T_W off J enter J by `insert_bits`.  For any t in
    T_W, d h + h d = id.  On J holding t, d h(J) holds J, t entering J - t
    with the sign h took it out with, and h d(J) has no term at J; on J
    without t, h d(J) holds J, t entering and leaving again, and d h(J) =
    0.  Every other term lets one bit b != t in and t out, in one order or
    the other, and the two cancel, since inserting b anticommutes with
    removing t: when b < t, b's sign is the same with t in or out and t's
    sign changes as b passes below it; when b > t, the other way round.
    A word whose T_W is empty has no t: its block is Z in circle degree 0,
    not exact, and h maps it to 0."""
    out = {}
    for W, circles in _by_word(terms).items():
        t = 1 << (S & ~gens.union(W)).bit_length() >> 1     # 0 when T_W is empty
        for J, c in circles.items():
            if J & t:
                out[(J ^ t, W)] = insertion_sign(J ^ t, t) * c
    return out


def _vertical_preimage(S, eta, gens):
    """phi with vertical(phi) = eta inside the slice S, on masks: phi = h eta
    (`_homotopy`), since a vertical cycle eta is d h eta + h d eta = d h eta.
    With t the top bit of T_W this is, bit for bit, the canonical solve of
    the Smith form (`SmithForm.solve`) on the Koszul matrix
    (tests/test_zigzag.py).  An eta that is no vertical cycle has no
    preimage, nor a word whose T_W is empty, and the one check
    vertical(phi) = eta, one `insert_bits` per word, refuses both; it
    refuses as well a broken insertion sign, for which d h + h d = id
    fails."""
    degrees = {J.bit_count() for J, _ in eta}
    if len(degrees) != 1:
        raise ZigzagError("staircase element mixes circle degrees")
    phi = _homotopy(S, eta, gens)
    if _vertical(S, phi, gens) != eta:
        raise ZigzagError("no integer vertical preimage; input cycle or signs broken")
    return phi


def _horizontal(S, phi, gens):
    """The horizontal differential inside the slice S, on masks: the
    generators whose face lies in union(W) + I = S - J, `within(S & ~J)`,
    enter W by `exactalg.insert_bits`, one call per circle bitmask J; the
    letters a generator takes from I need no bookkeeping, I being
    S - J - union(W)."""
    by_circles = {}
    for (J, W), c in phi.items():
        by_circles.setdefault(J, {})[W] = c
    out = {}
    for J, words in by_circles.items():
        for W, c in insert_bits(words, gens.within(S & ~J)).items():
            if c:
                out[(J, W)] = c
    return out


def _staircase(gens, slices):
    """The staircase from vertical cycles {S: {(J, W): coeff}} on the
    `Generators` gens, slice by slice in the order of their vertex sets,
    returning (cycle, trace).

    A slice leaves the loop only when every term has J = 0 and
    union(W) = S, which is the exact check that its last element eta is a
    Taylor cycle.  If the loop ran, eta = `_horizontal`(phi), and the
    horizontal step keeps J, so eta is the image of phi_0, the part of phi
    with J = 0: eta = g_S ^ phi_0, g_S the sum of the generators inside S.
    Every word of eta has the union S, so `index_boundary`(eta) = g_S ^ eta
    = g_S ^ g_S ^ phi_0 = 0, both differentials being the one insertion
    (`exactalg.insert_bits`) and g_S ^ g_S = 0.  If it did not run on a
    slice of `koszul_to_taylor`, whose words are empty, S is empty and eta
    the empty word, which no generator enters.  So the output is not walked
    again."""
    steps = []
    total = {}
    for S in sorted(slices, key=mask_face):
        eta = slices[S]
        while eta and any(J or gens.union(W) != S for J, W in eta):
            phi = _vertical_preimage(S, eta, gens)
            steps.append(ZigzagStep("solve-vertical", S, phi, gens))
            eta = _horizontal(S, phi, gens)
            steps.append(ZigzagStep("apply-horizontal", S, eta, gens))
        total.update({W: c for (_, W), c in eta.items()})
    return TaylorChain(gens, total), ZigzagTrace(tuple(steps))


def koszul_to_taylor(K, z):
    """Translate a cellular cycle of Z_K, a CellChain, into a Taylor cycle
    of the same Cotor class, returning (cycle, trace).

    Works one square-free multidegree at a time, on masks: solve a vertical
    preimage, apply the horizontal differential, repeat until the circle
    letters are exhausted; the remaining element is a pure Taylor cycle, by
    the rule each slice leaves the loop on (`_staircase`).  The input is
    checked to be a cycle, by the same insertion.
    """
    if not z.supported_in(K):
        raise ZigzagError("chain uses cells outside Z_K")
    gens = K.generators()
    slices = {}
    for (J, I), c in z.terms.items():
        slices.setdefault(J | I, {})[(J, 0)] = c
    if any(_vertical(S, eta, gens) for S, eta in slices.items()):
        raise ZigzagError("input chain is not a cycle")
    return _staircase(gens, slices)


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
