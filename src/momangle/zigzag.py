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
from itertools import combinations

from .complexes import face_mask, signed_sum_text, word_text
from .exactalg import boundary_matrix, solve_integer
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


def _slice_basis(K, S, circle_count, words):
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


def _words_in(K, S):
    """Exterior words over missing faces inside S, grouped by length."""
    sset = set(S)
    mfs = [F for F in mf_order(K) if set(F) <= sset]
    by_len = {}
    for s in range(len(mfs) + 1):
        by_len[s] = list(combinations(mfs, s))
    return by_len


def _solve_vertical(K, S, eta, words_by_len):
    """Find phi with vertical_diff(phi) = eta inside the multidegree slice."""
    degs = eta.circle_degrees()
    if len(degs) != 1:
        raise ZigzagError("staircase element mixes circle degrees")
    j = degs[0]
    word_lens = sorted({len(W) for (_, _, W) in eta.terms})
    target_basis = []
    source_basis = []
    for wl in word_lens:
        target_basis.extend(_slice_basis(K, S, j, words_by_len[wl]))
        source_basis.extend(_slice_basis(K, S, j - 1, words_by_len[wl]))
    tindex = {lab: i for i, lab in enumerate(target_basis)}
    A = boundary_matrix(source_basis, tindex,
                        lambda lab: vertical_diff(BicomplexChain({lab: 1})).terms)
    b = {}
    for lab, c in eta.terms.items():
        if lab not in tindex:
            raise ZigzagError(f"element leaves the multidegree slice: {lab}")
        b[tindex[lab]] = c
    x = solve_integer(A, b)
    if x is None:
        raise ZigzagError("no integer vertical preimage; input cycle or signs broken")
    return BicomplexChain({source_basis[i]: v for i, v in x.items()})


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
        words_by_len = _words_in(K, S)
        while eta and not eta.is_pure_taylor():
            phi = _solve_vertical(K, S, eta, words_by_len)
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
