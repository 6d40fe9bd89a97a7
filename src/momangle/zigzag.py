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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .complexes import face_mask, signed_sum_text, word_text
from .exactalg import boundary_matrix, smith_normal_form
from .moment_angle import CellChain, cell_boundary, cell_letters
from .taylor import (TaylorChain, generator_masks, insertions, mf_order,
                     taylor_boundary, taylor_cycle_is_boundary, union_mask)


class BicomplexChain:
    """Sparse integer combination of bicomplex basis triples (I, J, W)."""

    __slots__ = ("terms",)

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

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, BicomplexChain) and self.terms == other.terms

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return BicomplexChain(out)

    def __neg__(self):
        return BicomplexChain({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

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

    def __repr__(self):
        return f"BicomplexChain({self.to_text()})"


def vertical_diff(e):
    """Koszul differential, extended identically over the Taylor word."""
    out = {}
    for (I, J, W), c in e.terms.items():
        for (J2, I2), sign in cell_boundary((J, I)).items():
            out[(I2, J2, W)] = out.get((I2, J2, W), 0) + sign * c
    return BicomplexChain(out)


def horizontal_diff(K, e):
    """Taylor differential: absorb a missing face out of the disc letters.

    W is a basis word (factors in generator order); F enters it by the Taylor
    complex's own insertion rule, and the letters of F outside W leave I."""
    gens, masks = generator_masks(K)
    out = {}
    for (I, J, W), c in e.terms.items():
        union = union_mask(W)
        for F, newW, sign in insertions(W, gens, masks, union | face_mask(I)):
            needed = face_mask(F) & ~union
            key = (tuple(v for v in I if not needed >> (v - 1) & 1), J, newW)
            out[key] = out.get(key, 0) + sign * c
    return BicomplexChain(out)


@dataclass(frozen=True)
class ZigzagStep:
    kind: str              # "solve-vertical" | "apply-horizontal"
    element: BicomplexChain


@dataclass(frozen=True)
class ZigzagTrace:
    steps: tuple

    def to_json(self, indent=None):
        return json.dumps([{"kind": s.kind, "element": s.element.to_text()}
                           for s in self.steps], indent=indent)


class ZigzagError(RuntimeError):
    """A staircase solve failed: the input was not a cycle or a sign
    convention is broken; either way this must not pass silently."""


@lru_cache(maxsize=32)
def _koszul_block(n, j):
    """The vertical block of one word whose T_W is relabelled onto 1..n,
    from circle degree j - 1 to j: the Koszul matrix of the simplex on 1..n.
    A basis triple of the block is named by its circle letters J alone (the
    disc letters are the rest of 1..n).  Returns (row of each target J,
    source Js in column order, Smith form with transforms)."""
    letters = range(1, n + 1)

    def column(J):
        I = tuple(v for v in letters if v not in J)
        return {J2: sign for (J2, _), sign in cell_boundary((J, I)).items()}

    rows = {J: t for t, J in enumerate(combinations(letters, j))}
    sources = list(combinations(letters, j - 1)) if j else []
    return rows, sources, smith_normal_form(boundary_matrix(sources, rows, column))


def _solve_vertical(K, S, eta):
    """Find phi with vertical_diff(phi) = eta inside the multidegree slice S.

    The vertical differential keeps the word W and moves disc letters of
    T_W = S - union(W) into circles, so the slice is block diagonal with one
    Koszul block per word.  Each word of eta is solved on its own, against
    the cached block of (|T_W|, j) after the order-preserving relabelling
    T_W -> 1..n; words absent from eta have the zero preimage."""
    degs = eta.circle_degrees()
    if len(degs) != 1:
        raise ZigzagError("staircase element mixes circle degrees")
    j = degs[0]
    position = {F: k for k, F in enumerate(mf_order(K))}
    smask = face_mask(S)
    by_word = {}
    for lab, c in eta.terms.items():
        I, J, W = lab
        if W not in by_word:
            order = [position.get(F) for F in W]
            if (None in order or any(p >= q for p, q in zip(order, order[1:]))
                    or union_mask(W) & ~smask):
                raise ZigzagError(f"element leaves the multidegree slice: {lab}")
            union = set().union(*W)
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
        rows, sources, snf = _koszul_block(len(T), j)
        x = snf.solve({rows[J]: c for J, c in b.items()})
        if x is None:
            raise ZigzagError("no integer vertical preimage; input cycle or signs broken")
        for col, c in x.items():
            J = tuple(T[k - 1] for k in sources[col])
            phi[(tuple(v for v in T if v not in J), J, W)] = c
    return BicomplexChain(phi)


def koszul_to_taylor(K, z):
    """Translate a cellular cycle of Z_K into a Taylor cycle of the same
    Cotor class, returning (cycle, trace).

    Works one square-free multidegree at a time: solve a vertical preimage,
    apply the horizontal differential, repeat until the circle letters are
    exhausted; the remaining element is a pure Taylor cycle.
    """
    if isinstance(z, CellChain):
        if not z.supported_in(K):
            raise ZigzagError("chain uses cells outside Z_K")
        start = BicomplexChain.from_cell_chain(z)
    else:
        start = z
    if vertical_diff(start):
        raise ZigzagError("input chain is not a cycle")
    steps = []
    total = TaylorChain.zero()
    for S, eta in sorted(start.multidegree_components().items()):
        while eta and not eta.is_pure_taylor():
            phi = _solve_vertical(K, S, eta)
            steps.append(ZigzagStep("solve-vertical", phi))
            eta = horizontal_diff(K, phi)
            steps.append(ZigzagStep("apply-horizontal", eta))
        part = eta.taylor_part()
        if part:
            total = total + part
    if taylor_boundary(K, total):
        raise ZigzagError("staircase output is not a Taylor cycle")
    return total, ZigzagTrace(tuple(steps))


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
