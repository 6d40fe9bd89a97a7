"""Mathematics for checking momangle's reports, written apart from momangle.

Nothing here imports momangle.  A complex is a frozenset of sorted vertex
tuples (the empty face included); homology comes from an integer
elimination written for this file; chains are read back from the text the
CLI prints.  The formulas are the paper's:

* Hochster: H_n(Z_K) = sum over vertex sets J of H~_{n-|J|-1}(K_J);
* cellular boundary: d k(J, I) = sum over i in I of
  (-1)^{#{j in J : j < i}} k(J + i, I - i);
* Taylor differential of the face coalgebra: d(w_F1 ^ ... ^ w_Fs) = sum over
  missing faces F inside F1 u ... u Fs, not among the Fi, of
  w_F ^ w_F1 ^ ... ^ w_Fs, sorted back into (cardinality, lex) order.
"""

from __future__ import annotations

import re
from itertools import combinations, product


# -- complexes ---------------------------------------------------------------

def closure(m, facets):
    """All faces spanned by the facets, plus every vertex and the empty face."""
    faces = {()} | {(v,) for v in range(1, m + 1)}
    for f in facets:
        f = tuple(sorted(f))
        for k in range(len(f) + 1):
            faces.update(combinations(f, k))
    return frozenset(faces)


def maximal(faces):
    """Facets of a face set, sorted by (cardinality, lex)."""
    sets = [set(f) for f in faces]
    out = [f for f, s in zip(faces, sets)
           if not any(s < t for t in sets)]
    return sorted(out, key=lambda f: (len(f), f))


def missing_faces(m, faces):
    """Minimal non-faces, straight from the definition, in (cardinality, lex)."""
    out = []
    for k in range(1, m + 1):
        for cand in combinations(range(1, m + 1), k):
            if cand not in faces and all(
                    cand[:i] + cand[i + 1:] in faces for i in range(k)):
                out.append(cand)
    return out


def cells(m, faces):
    """Number of cells k(J, I) of Z_K: each face I leaves 2^(m - |I|) choices of J."""
    return sum(1 << (m - len(f)) for f in faces)


# -- integer elimination -------------------------------------------------------

def _dense_diagonal(a):
    """Nonzero invariant factors of a dense integer matrix (list of rows)."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    out = []
    t = 0
    while t < min(rows, cols):
        piv = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] and (piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        a[t], a[piv[0]] = a[piv[0]], a[t]
        for r in a:
            r[t], r[piv[1]] = r[piv[1]], r[t]
        p = a[t][t]
        left = False
        for i in range(t + 1, rows):
            q = a[i][t] // p
            if q:
                for j in range(t, cols):
                    a[i][j] -= q * a[t][j]
            left = left or bool(a[i][t])
        for j in range(t + 1, cols):
            q = a[t][j] // p
            if q:
                for i in range(t, rows):
                    a[i][j] -= q * a[i][t]
            left = left or bool(a[t][j])
        if left:
            continue                      # a smaller remainder: pivot again
        bad = next((i for i in range(t + 1, rows)
                    if any(a[i][j] % p for j in range(t + 1, cols))), None)
        if bad is not None:
            for j in range(t, cols):
                a[t][j] += a[bad][j]
            continue
        out.append(abs(p))
        t += 1
    return out


def invariant_factors(rows):
    """Nonzero invariant factors of a sparse matrix {row: {col: value}}.

    Unit pivots are eliminated first (a unit pivot's row and column leave
    the rest of the matrix unchanged once its column is cleared); what is
    left goes to the dense Smith normal form above."""
    rows = {r: dict(row) for r, row in rows.items() if row}
    col_rows = {}
    for r, row in rows.items():
        for c in row:
            col_rows.setdefault(c, set()).add(r)
    units = 0
    while True:
        piv = None
        for r, row in rows.items():
            for c, v in row.items():
                if v == 1 or v == -1:
                    cost = (len(row) - 1) * (len(col_rows[c]) - 1)
                    if piv is None or cost < piv[0]:
                        piv = (cost, r, c)
        if piv is None:
            break
        _, r, c = piv
        prow = rows.pop(r)
        for c2 in prow:
            col_rows[c2].discard(r)
        p = prow[c]
        for r2 in list(col_rows[c]):
            row2 = rows[r2]
            q = row2[c] * p
            for c2, v in prow.items():
                nv = row2.get(c2, 0) - q * v
                if nv:
                    row2[c2] = nv
                    col_rows[c2].add(r2)
                elif c2 in row2:
                    del row2[c2]
                    col_rows[c2].discard(r2)
            if not row2:
                del rows[r2]
        units += 1
    if not rows:
        return [1] * units
    cols = sorted({c for row in rows.values() for c in row})
    where = {c: j for j, c in enumerate(cols)}
    dense = []
    for row in rows.values():
        line = [0] * len(cols)
        for c, v in row.items():
            line[where[c]] = v
        dense.append(line)
    return [1] * units + sorted(_dense_diagonal(dense))


def reduced_homology(faces):
    """Reduced integral homology of a face set: {dim: (rank, torsion)}, nonzero only."""
    by_dim = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, []).append(f)
    factors = {}
    for d, fs in by_dim.items():
        below = {g: i for i, g in enumerate(by_dim.get(d - 1, ()))}
        if not below:
            continue
        rows = {}
        for j, f in enumerate(fs):
            for k in range(len(f)):
                rows.setdefault(below[f[:k] + f[k + 1:]], {})[j] = -1 if k % 2 else 1
        factors[d] = invariant_factors(rows)
    out = {}
    for d, fs in by_dim.items():
        into = factors.get(d + 1, [])
        rank = len(fs) - len(factors.get(d, [])) - len(into)
        torsion = tuple(f for f in into if f > 1)
        if rank or torsion:
            out[d] = (rank, torsion)
    return out


def normal_torsion(orders):
    """Invariant factors (each dividing the next) of a sum of cyclic groups."""
    powers = {}
    for n in orders:
        p = 2
        while n > 1:
            q = 1
            while n % p == 0:
                n //= p
                q *= p
            if q > 1:
                powers.setdefault(p, []).append(q)
            p += 1
    out = []
    for qs in powers.values():
        qs.sort(reverse=True)
        for k, q in enumerate(qs):
            if k == len(out):
                out.append(1)
            out[k] *= q
    return tuple(sorted(out))


class Hochster:
    """H_*(Z_K) from the full subcomplexes, memoised across complexes."""

    def __init__(self):
        self._memo = {}

    def full_subcomplex_homology(self, faces, J):
        if J in faces:
            return {}                             # a simplex
        Jset = set(J)
        sub = [f for f in faces if Jset.issuperset(f)]
        for v in J:                               # a cone with apex v
            if all(tuple(sorted(f + (v,))) in faces for f in sub if v not in f):
                return {}
        pos = {v: i + 1 for i, v in enumerate(J)}
        key = frozenset(tuple(pos[v] for v in f) for f in sub)
        if key not in self._memo:
            self._memo[key] = reduced_homology(
                sorted(key, key=lambda f: (len(f), f)))
        return self._memo[key]

    def zk_homology(self, m, faces):
        """{degree: (rank, torsion)} of Z_K, nonzero degrees only."""
        ranks = {0: 1}
        torsion = {}
        for k in range(1, m + 1):
            for J in combinations(range(1, m + 1), k):
                for d, (rank, tors) in self.full_subcomplex_homology(faces, J).items():
                    n = d + k + 1
                    ranks[n] = ranks.get(n, 0) + rank
                    torsion.setdefault(n, []).extend(tors)
        out = {}
        for n in set(ranks) | set(torsion):
            rank, tors = ranks.get(n, 0), normal_torsion(torsion.get(n, ()))
            if rank or tors:
                out[n] = (rank, tors)
        return out


# -- Whitehead expressions -------------------------------------------------------
#
# A leaf is an int, a bracket a tuple of children; texts follow the CLI's
# grammar, e.g. "[[1,2,3],4,5]".

def w_text(w):
    if isinstance(w, int):
        return str(w)
    return "[" + ",".join(w_text(c) for c in w) + "]"


def w_leaves(w):
    if isinstance(w, int):
        return (w,)
    return tuple(sorted(v for c in w for v in w_leaves(c)))


def w_dimension(w):
    subs = [c for c in w if not isinstance(c, int)]
    leaves = [c for c in w if isinstance(c, int)]
    return sum(w_dimension(c) for c in subs) + 2 * len(leaves) - 1


def is_single(w):
    return all(isinstance(c, int) for c in w)


def is_special(w):
    """[w_1, ..., w_q, leaves] with every w_j a single product (q = 0 included)."""
    return all(isinstance(c, int) or is_single(c) for c in w)


def is_nested(w):
    subs = [c for c in w if not isinstance(c, int)]
    return not subs or (len(subs) == 1 and is_nested(subs[0]))


def substitute(slot_faces, parts):
    """K(K_1, ..., K_k): unions of part faces whose nonempty slots form a face of K."""
    faces = set()
    for pick in product(*parts):
        slots = tuple(s + 1 for s, f in enumerate(pick) if f)
        if slots in slot_faces:
            faces.add(tuple(sorted(v for f in pick for v in f)))
    return frozenset(faces)


def delta_w(w):
    """Faces of the canonical complex bd_Delta(w), vertices labelled by leaves:
    the boundary of the simplex on the arguments, with bd_Delta of each
    sub-product and a point for each leaf substituted in."""
    parts = [[(), (c,)] if isinstance(c, int) else sorted(delta_w(c)) for c in w]
    k = len(parts)
    slot_faces = {f for r in range(k) for f in combinations(range(1, k + 1), r)}
    return substitute(slot_faces, parts)


def trivialising_join(w):
    """Faces of bd(w_1) * ... * bd(w_q) * simplex(leaves) for a special w."""
    pieces = []
    for c in w:
        if isinstance(c, int):
            pieces.append([(), (c,)])
        else:
            pieces.append([f for r in range(len(c)) for f in combinations(sorted(c), r)])
    return frozenset(tuple(sorted(v for f in pick for v in f)) for pick in product(*pieces))


# -- chains printed by the CLI ------------------------------------------------------

_TERM = re.compile(r"\s*([+-]?)\s*(?:(\d+)\*)?([^+-]+)")


def _terms(text):
    text = text.strip()
    if text == "0":
        return
    pos = 0
    while pos < len(text):
        match = _TERM.match(text, pos)
        if not match or match.end() == pos:
            raise ValueError(f"cannot read chain text at {text[pos:]!r}")
        sign = -1 if match.group(1) == "-" else 1
        yield sign * int(match.group(2) or 1), match.group(3).strip()
        pos = match.end()


def _inversions(keys):
    return sum(1 for a, b in combinations(keys, 2) if a > b)


def read_cell_chain(text):
    """{(J, I): coeff} from words of S_i (circle) and D_i (disc) letters."""
    out = {}
    for c, word in _terms(text):
        letters = [(x[0], int(x[1:])) for x in word.split("*")]
        if any(kind not in "SD" for kind, _ in letters):
            raise ValueError(f"unknown letter in {word!r}")
        circles = [v for kind, v in letters if kind == "S"]
        if _inversions(circles) % 2:
            c = -c
        cell = (tuple(sorted(circles)),
                tuple(sorted(v for kind, v in letters if kind == "D")))
        out[cell] = out.get(cell, 0) + c
    return {k: v for k, v in out.items() if v}


def cellular_boundary(chain):
    out = {}
    for (J, I), c in chain.items():
        for i in I:
            sign = -1 if sum(1 for j in J if j < i) % 2 else 1
            tgt = (tuple(sorted(J + (i,))), tuple(x for x in I if x != i))
            out[tgt] = out.get(tgt, 0) + sign * c
    return {k: v for k, v in out.items() if v}


def gen_key(f):
    return (len(f), f)


def read_taylor_chain(text):
    """{word: coeff} with each word in ascending generator order."""
    out = {}
    for c, body in _terms(text):
        word = [tuple(int(ch) for ch in x.strip()[1:]) for x in body.split("^")]
        if any(not f for f in word):
            raise ValueError(f"empty generator in {body!r}")
        if _inversions([gen_key(f) for f in word]) % 2:
            c = -c
        word = tuple(sorted(word, key=gen_key))
        out[word] = out.get(word, 0) + c
    return {k: v for k, v in out.items() if v}


def taylor_boundary(mf, chain):
    out = {}
    for word, c in chain.items():
        union = set(v for f in word for v in f)
        for F in mf:
            if F in word or not union.issuperset(F):
                continue
            before = sum(1 for G in word if gen_key(G) < gen_key(F))
            tgt = tuple(sorted(word + (F,), key=gen_key))
            out[tgt] = out.get(tgt, 0) + (-1 if before % 2 else 1) * c
    return {k: v for k, v in out.items() if v}
