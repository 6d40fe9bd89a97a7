"""Sparse exact integer linear algebra.

Everything here runs over arbitrary-precision Python integers: Smith normal
form with unimodular transforms, integer linear solving, and homology of
integer chain complexes (rank plus invariant-factor torsion).  No modular or
floating-point shortcuts anywhere; torsion correctness depends on it.

A chain complex has one shape: the nonzero columns of its differentials,
{d: {col: [(row, value), ...]}}, over the ranks of its chain groups.
Homology has one rule on that shape, `column_homology`: a complex with no
column is its ranks; otherwise it checks d^2 = 0 on the columns and
reduces only the differentials that have entries: a one-column one by the
gcd of its entries, a wider one by eliminating its unit pivots straight
from its columns (`_eliminate_units`), and only a residual that still has
entries by the Smith normal form.

Every complex kept on bitmasks (the cellular star quotients, the Taylor
blocks, Lyubeznik's slices and the staircase's slices) is exterior:
its differential lets one bit b enter a word x as x | b, with the sign
(-1)^popcount(x & (b - 1)) of the set bits below b (`insertion_sign`, for
one bit).  Beside it the rule has two writers, both here: on a chain
{word: coeff}, the one chain insertion `insert_bits`, which every chain
differential of the package calls (the cell boundary, the Taylor
differential, the closed form's growth and the staircase's two steps); and
on a block's basis, the one column builder `insertion_columns`, which the
tables' one per-block reader (`moment_angle._block_groups`) and the Taylor
degree table feed to `column_homology`, with no complex built.  The
staircase builds no block: its vertical blocks are Koszul complexes of
simplices, solved by their contracting homotopy (`zigzag._homotopy`).  An insertion adds one
bit, so a block with no two adjacent degrees occupied needs no columns, and
the builder makes none; the reader does not even ask it for a block whose
words all have one popcount.  Whether cycles bound in a block, or are a
basis of its homology, is one lattice index on the same columns, with no
transforms (`image_factors`).  A `ChainComplex` labels the same columns
with a basis (`insertion_complex`), and `ChainComplex.from_boundary`
writes the columns of a boundary callable on labels, for simplicial
chains, the whole complexes and the references.
Homology groups are frozen values, and the column rule, `direct_sum` and
the folds take them from one bounded memo (`_shared_group`), so the many
small blocks that share a group share it.

The Smith normal form has one elimination state, `_SnfWorker`: A's rows
alone, beside U's rows, V's columns and V^-1's rows, and every row or
column addition on any of them is one sparse update (`_addmul`).  Its pivot
rule fixes the transforms, and with them the class coordinates
(`ChainComplex.class_of`) and canonical solves (`SmithForm.solve`) that the
tests hold the package to; no verb reaches the transforms.
Without transforms the unit pivots go first (`_eliminate_units`, on the
matrix's columns), and only a residual with entries goes through the same
worker for its diagonal.

Conventions:
  * matrices are sparse maps (row, col) -> nonzero int;
  * chain complexes are graded homologically, the differential lowers the
    degree by one; cohomological data must be re-indexed by negation before
    it enters this module.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache
from math import gcd


def _addmul(dst, src, q):
    """dst += q * src on sparse maps {index: value}, an entry that reaches
    zero dropped: every row and column addition of the Smith form, on A and
    on its transforms, and the row sums of a matrix product."""
    for k, v in src.items():
        w = dst.get(k, 0) + q * v
        if w:
            dst[k] = w
        elif k in dst:
            del dst[k]


class IntMatrix:
    """Sparse integer matrix; zero entries are never stored."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries=None):
        self.rows = rows
        self.cols = cols
        self.entries = {}
        if entries:
            for (i, j), v in entries.items() if isinstance(entries, dict) else entries:
                if not (0 <= i < rows and 0 <= j < cols):
                    raise ValueError(f"entry ({i},{j}) outside {rows}x{cols}")
                if v:
                    self.entries[(i, j)] = int(v)

    @classmethod
    def _adopt(cls, rows, cols, entries):
        """Matrix that takes `entries` as it is, unchecked: for the package's
        own results, whose indices are in range and whose values are nonzero
        ints by construction."""
        A = cls.__new__(cls)
        A.rows, A.cols, A.entries = rows, cols, entries
        return A

    @classmethod
    def zero(cls, rows, cols):
        return cls(rows, cols)

    @classmethod
    def from_rows(cls, rows_data):
        rows = len(rows_data)
        cols = len(rows_data[0]) if rows else 0
        return cls(rows, cols, {(i, j): v for i, row in enumerate(rows_data)
                                for j, v in enumerate(row) if v})

    def __getitem__(self, key):
        return self.entries.get(key, 0)

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def is_zero(self):
        return not self.entries

    def nnz(self):
        return len(self.entries)

    def columns(self):
        """Entries grouped by column: {j: [(i, value), ...]}, nonzero columns only."""
        out = {}
        for (i, j), v in self.entries.items():
            out.setdefault(j, []).append((i, v))
        return out

    def __matmul__(self, other):
        if isinstance(other, IntMatrix):
            if self.cols != other.rows:
                raise ValueError("dimension mismatch")
            other_rows, out = {}, {}
            for (k, j), w in other.entries.items():
                other_rows.setdefault(k, {})[j] = w
            for (i, k), v in self.entries.items():
                _addmul(out.setdefault(i, {}), other_rows.get(k, {}), v)
            return IntMatrix._adopt(self.rows, other.cols, {
                (i, j): s for i, row in out.items() for j, s in row.items()})
        return NotImplemented

    def apply(self, vec):
        """Multiply by a sparse column vector {index: value}."""
        out = {}
        for (i, j), v in self.entries.items():
            w = vec.get(j)
            if w:
                out[i] = out.get(i, 0) + v * w
        return {i: v for i, v in out.items() if v}

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols}, nnz={self.nnz()})"


@dataclass(frozen=True)
class SmithForm:
    """U @ A @ V == S with U, V unimodular; diag holds the invariant factors.

    ``vinv`` is V**-1, tracked during elimination; it converts vectors into
    the V-basis, which is what kernel-coordinate extraction needs.
    """

    S: IntMatrix
    U: IntMatrix
    V: IntMatrix
    vinv: IntMatrix
    diag: tuple

    @property
    def rank(self):
        return len(self.diag)

    def kernel_columns(self):
        """Indices j with S[j,j] absent or zero: V's columns there span ker A."""
        return list(range(self.rank, self.V.cols))

    def solve(self, b):
        """The canonical integer solution x of A x = b, or None when there is
        none; needs the transforms.  b is a sparse vector {row: value} with
        rows inside A.  x has
        zero coordinates along the kernel columns of V, so it is the same bit
        for bit on every run: x = V y with y_t = (U b)_t / diag_t."""
        c = self.U.apply(b)
        y = {}
        for t, d in enumerate(self.diag):
            ct = c.pop(t, 0)
            if ct % d:
                return None
            if ct:
                y[t] = ct // d
        if any(c.values()):
            return None
        return self.V.apply(y)


class _SnfWorker:
    """Elimination state for the Smith normal form: A's rows, U's rows, V's
    columns and V^-1's rows, each a sparse map {index: value}.

    Step t moves the least (|v|, row, col) among the rows and columns from t
    on to (t, t) and clears its column with row additions and its row with
    column additions; a remainder is moved in the pivot's place, and a
    pivot that does not divide a later row takes that row in.  This pivot
    rule fixes the transforms and therefore the class coordinates.
    When step t starts, every row above t holds its pivot
    alone, so a column operation walks the rows from t on (`_rows_from`).
    """

    def __init__(self, A):
        self.m, self.n = A.rows, A.cols
        self.a = [{} for _ in range(self.m)]
        for (i, j), v in A.entries.items():
            self.a[i][j] = v
        self.u = [{i: 1} for i in range(self.m)]
        self.v = [{j: 1} for j in range(self.n)]
        self.vinv = [{j: 1} for j in range(self.n)]

    def _rows_from(self, t):
        """The rows that a column operation of step t walks: every row above
        t holds its pivot alone, with no entry in a column from t on."""
        return self.a[t:]

    def _move_pivot(self, t):
        """Swap the least (|v|, row, col) from row and column t on into
        (t, t), one row and one column swap, and make it positive; False when
        no entry is left.  The rows from t hold no entry left of column t.  A
        unit is the least magnitude there is, so the scan, in row order,
        stops at the first row that holds one."""
        a, best = self.a, None
        for i in range(t, self.m):
            for j, v in a[i].items():
                if best is None or (abs(v), i, j) < best:
                    best = (abs(v), i, j)
            if best is not None and best[0] == 1:
                break
        if best is None:
            return False
        _, r, c = best
        a[t], a[r] = a[r], a[t]
        self.u[t], self.u[r] = self.u[r], self.u[t]
        if c != t:
            for row in self._rows_from(t):
                x, y = row.pop(t, 0), row.pop(c, 0)
                if x:
                    row[c] = x
                if y:
                    row[t] = y
            self.v[t], self.v[c] = self.v[c], self.v[t]
            self.vinv[t], self.vinv[c] = self.vinv[c], self.vinv[t]
        if a[t][t] < 0:
            a[t] = {j: -v for j, v in a[t].items()}
            self.u[t] = {j: -v for j, v in self.u[t].items()}
        return True

    def run(self):
        """The invariant factors, in order; U, V and V^-1 follow every
        operation: V the column additions, V^-1 their inverse row ones."""
        a, u, v, vinv = self.a, self.u, self.v, self.vinv
        diag = []
        for t in range(min(self.m, self.n)):
            if not self._move_pivot(t):
                break
            while True:
                pivot, p = a[t], a[t][t]
                remainder = False
                for i in range(t + 1, self.m):
                    if t in a[i]:
                        q = a[i][t] // p
                        _addmul(a[i], pivot, -q)
                        _addmul(u[i], u[t], -q)
                        remainder = remainder or t in a[i]
                # col_j -= q_j col_t for every j: one update per row with column t
                qs = {j: q for j, x in sorted(pivot.items()) if j != t and (q := x // p)}
                for row in self._rows_from(t):
                    if t in row:
                        _addmul(row, qs, -row[t])
                for j, q in qs.items():
                    _addmul(v[j], v[t], -q)
                    _addmul(vinv[t], vinv[j], q)    # (I - q E_tj)^-1 = I + q E_tj
                if remainder or len(pivot) > 1:
                    self._move_pivot(t)
                    if a[t][t] >= p:                # every remainder is below p
                        raise AssertionError("a Smith form step did not shrink its pivot")
                    continue
                if p == 1:
                    break                           # a unit divides everything
                r = next((i for i in range(t + 1, self.m)
                          if any(x % p for x in a[i].values())), None)
                if r is None:
                    break
                _addmul(pivot, a[r], 1)
                _addmul(u[t], u[r], 1)
            diag.append(a[t][t])
        return diag

    def result(self):
        diag = self.run()
        adopt = IntMatrix._adopt
        S = adopt(self.m, self.n, {(t, t): d for t, d in enumerate(diag)})
        U = adopt(self.m, self.m, {(i, j): v for i, row in enumerate(self.u)
                                   for j, v in row.items()})
        V = adopt(self.n, self.n, {(i, j): v for j, col in enumerate(self.v)
                                   for i, v in col.items()})
        vinv = adopt(self.n, self.n, {(i, j): v for i, row in enumerate(self.vinv)
                                      for j, v in row.items()})
        return SmithForm(S, U, V, vinv, tuple(diag))


def _eliminate_units(columns):
    """Eliminate the +-1 pivots sparsely, without transforms, from the
    nonzero columns of a matrix, {col: [(row, value), ...]}; a zero value
    is dropped.

    Repeatedly take the column with the fewest entries that holds a unit, and
    in it the unit whose row has the fewest entries; clear the column with row
    operations and drop the pivot's row and column.  What is left is the
    Schur complement, which has no +-1 entry.  This is algebraic discrete
    Morse reduction (Skoldberg 2006; Jollenbeck-Welker 2009): the matrix's
    invariant factors are one 1 per eliminated unit followed by the
    residual's.

    Returns (number of units eliminated, residual IntMatrix).
    """
    rows, cols = {}, {}
    for j, column in columns.items():
        for i, v in column:
            if v:
                rows.setdefault(i, {})[j] = v
                cols.setdefault(j, set()).add(i)
    heap = [(len(rs), j) for j, rs in cols.items()]
    heapq.heapify(heap)
    units = 0
    while heap:
        count, c = heapq.heappop(heap)
        col = cols.get(c)
        if col is None or len(col) != count:
            continue            # stale entry: c was dropped or has changed since
        r = None
        for i in col:
            if rows[i][c] in (1, -1):
                key = (len(rows[i]), i)
                if r is None or key < best:
                    r, best = i, key
        if r is None:
            continue            # no unit; pushed again if a later step changes c
        pivot = rows.pop(r)
        p = pivot.pop(c)
        del cols[c]
        for j in pivot:
            cols[j].discard(r)
        for i in col:
            if i == r:
                continue
            row = rows[i]
            q = row.pop(c) * p  # row_i -= (a_ic / p) * row_r, and 1/p == p
            for j, v in pivot.items():
                w = row.get(j, 0) - q * v
                if w:
                    row[j] = w
                    cols[j].add(i)
                elif j in row:
                    del row[j]
                    cols[j].discard(i)
        for j in pivot:
            if cols[j]:
                heapq.heappush(heap, (len(cols[j]), j))
            else:
                del cols[j]
        units += 1
    row_at = {i: t for t, i in enumerate(sorted(i for i, row in rows.items() if row))}
    col_at = {j: t for t, j in enumerate(sorted(cols))}
    return units, IntMatrix._adopt(len(row_at), len(col_at),
                                   {(row_at[i], col_at[j]): v for i, row in rows.items()
                                    for j, v in row.items()})


def smith_normal_form(A, transforms=True):
    """Smith normal form of an integer matrix.

    Returns a SmithForm with U @ A @ V == S, the diagonal of S being the
    invariant factors in divisibility order.  With transforms the pivot rule
    of `_SnfWorker` is kept throughout, since the transforms it fixes are
    what canonical solutions depend on.  With transforms=False only the
    diagonal is returned (U, V, vinv are None), the nonzero invariant
    factors by `_factors`.
    """
    if transforms:
        return _SnfWorker(A).result()
    diag = _factors(A.columns())
    S = IntMatrix._adopt(A.rows, A.cols, {(t, t): d for t, d in enumerate(diag)})
    return SmithForm(S, None, None, None, tuple(diag))


def invariant_factors(A):
    """Nonzero invariant factors of A (rank-many entries), by `_factors`."""
    return _factors(A.columns())


def solve_integer(A, b):
    """One integer solution x of A x = b, or None when none exists.

    b is a sparse vector {row: value}.  The returned solution is canonical:
    its coordinates along the kernel columns of the SNF transform are zero,
    so repeated runs are reproducible bit for bit.
    """
    for i in b:
        if not 0 <= i < A.rows:
            raise ValueError("vector index outside matrix rows")
    return smith_normal_form(A).solve(b)


def kernel_basis(A):
    """Columns spanning ker A; the basis is saturated (spans all of the
    integer kernel) because it consists of columns of a unimodular matrix."""
    snf = smith_normal_form(A)
    columns = snf.V.columns()
    return [dict(columns[j]) for j in snf.kernel_columns()]


@dataclass(frozen=True)
class HomologyGroup:
    """rank + multiset of invariant factors > 1, each dividing the next."""

    rank: int
    torsion: tuple = ()

    def __post_init__(self):
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError("invariant factors must divide successively")

    def is_trivial(self):
        return self.rank == 0 and not self.torsion

    def __str__(self):
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


TRIVIAL_GROUP = HomologyGroup(0, ())


@lru_cache(maxsize=1024)
def _shared_group(rank, torsion):
    """The HomologyGroup(rank, torsion), one shared value per pair while it
    is among the 1024 most recent: groups are frozen, so the many blocks and
    degree sums with one group need not each build it afresh."""
    return HomologyGroup(rank, torsion)


def direct_sum(a, b):
    """Direct sum of homology groups, re-normalised to invariant factors.
    When the sorted merge of the two torsion tuples already divides in
    turn, it is the answer as it stands, found in linear time: two
    torsion-free groups, or the many copies of one factor that the cellular
    degree sums repeat.  Any other merge goes through `_sweep`."""
    if a is None:
        return b
    if b is None:
        return a
    return _shared_group(a.rank + b.rank, _invariant_torsion(a.torsion + b.torsion))


def _invariant_torsion(fs):
    """The invariant factors of the direct sum of the cyclic groups Z/f, f
    in `fs`, each f > 1: their sorted merge when it already divides in turn,
    found in linear time, otherwise `_sweep`'s."""
    fs = sorted(fs)
    if all(y % x == 0 for x, y in zip(fs, fs[1:])):
        return tuple(fs)
    return _sweep(fs)


def _sweep(fs):
    """Invariant factors of the torsion factors `fs`: one pairwise (gcd,
    lcm) sweep leaves their p-adic exponents sorted ascending for every
    prime p at once, so each entry divides the next; the 1s are dropped.
    Quadratic in the number of factors."""
    fs = list(fs)
    for i in range(len(fs)):
        for j in range(i + 1, len(fs)):
            g = gcd(fs[i], fs[j])
            fs[i], fs[j] = g, fs[i] // g * fs[j]
    return tuple(f for f in fs if f != 1)


@dataclass(frozen=True)
class HomologyClass:
    """Coordinates of a cycle's class in the SNF-derived presentation.

    orders[i] == 0 marks a free coordinate, otherwise coords[i] lives in
    Z/orders[i] (already reduced).  Coordinates of invariant factor 1 are
    dropped.  The class is a boundary exactly when every coordinate is zero.
    """

    coords: tuple
    orders: tuple

    @property
    def is_boundary(self):
        return all(c == 0 for c in self.coords)


def check_columns(columns):
    """Push each column of d_d through d_{d-1}, degree by degree; columns are
    {d: {col: [(row, value), ...]}}.  Raises ValueError unless d^2 = 0."""
    for d in sorted(columns):
        lower = columns.get(d - 1)
        if not lower:
            continue
        for column in columns[d].values():
            image = {}
            for k, v in column:
                for i, w in lower.get(k, ()):
                    image[i] = image.get(i, 0) + v * w
            if any(image.values()):
                raise ValueError(f"d^2 != 0 between degrees {d} and {d-2}")


def _column_matrix(rows, cols, columns):
    """The rows x cols IntMatrix of the columns {col: [(row, value), ...]};
    a zero value is dropped, as no SNF pivot may be zero."""
    return IntMatrix._adopt(rows, cols, {(i, j): v for j, column in columns.items()
                                         for i, v in column if v})


def _factors(columns):
    """The nonzero invariant factors of the matrix with the nonzero columns
    `columns`: one column has a single one, the gcd of its entries; wider
    ones eliminate their unit pivots on the columns (`_eliminate_units`),
    and only a residual with entries reaches the Smith form's worker."""
    if len(columns) == 1:
        (column,) = columns.values()
        g = gcd(*(v for _, v in column))
        return [g] if g else []
    units, residual = _eliminate_units(columns)
    return [1] * units + (_SnfWorker(residual).run() if residual.entries else [])


def _column_groups(dims, columns):
    """{d: H_d}, nontrivial groups only, from the ranks `dims` and the
    differentials' nonzero columns; only the differentials with entries
    have invariant factors to find (`_factors`)."""
    factors = {d: _factors(cols) for d, cols in columns.items() if cols}
    out = {}
    for d in sorted(dims):
        into = factors.get(d + 1, ())
        rank = dims[d] - len(factors.get(d, ())) - len(into)
        torsion = tuple(f for f in into if f > 1)
        if rank or torsion:
            out[d] = _shared_group(rank, torsion)
    return out


def column_homology(dims, columns):
    """Homology of the complex with rank dims[d] in degree d whose
    differential out of degree d has the nonzero columns columns[d],
    {col: [(row, value), ...]}; {d: group}, nontrivial groups only.

    The one homology rule: a complex with no column is its ranks, in
    ascending degree.  Otherwise d^2 = 0 is checked on the columns
    (`check_columns`), then H_d has rank dims[d] less the ranks of the
    differentials out of and into degree d, and the torsion of the one into
    it.  No labelled complex is needed."""
    if not any(columns.values()):
        return {d: _shared_group(n, ()) for d, n in sorted(dims.items()) if n}
    check_columns(columns)
    return _column_groups(dims, columns)


def image_factors(words, inside, s, chains):
    """The nonzero invariant factors of B and of [B | Z] by `_factors`, with
    no transforms, on the exterior block (`insertion_columns`) with basis
    `words` and the bits `inside` that may enter: B inserts the words of
    s - 1 bits into those of s bits, and Z is the `chains`, {word: coeff}
    on words of s bits, projected onto the block's words.

    The product of the factors is the index of the lattice in its
    saturation.  A cycle z bounds exactly when B and [B | z] have as many
    factors with one product, for then im B + Zz is im B.  Where H is free
    im B is saturated, and the factors of [B | Z] after B's count are
    those of Z's coordinates in H: rank-H ones exactly when Z is a basis."""
    dims, columns = insertion_columns([w for w in words if w.bit_count() in (s - 1, s)], inside)
    rows = {word: i for i, word in enumerate(w for w in words if w.bit_count() == s)}
    image, n = columns.get(1 - s, {}), dims.get(1 - s, 0)
    with_z = dict(image)
    for k, chain in enumerate(chains):
        with_z[n + k] = [(rows[word], c) for word, c in chain.items() if c and word in rows]
    return _factors(image), _factors(with_z)


def insertion_sign(word, b):
    """The sign with which bit b enters the bitmask `word`:
    (-1)^popcount(word & (b - 1)), one transposition per set bit below b."""
    return -1 if (word & (b - 1)).bit_count() & 1 else 1


def concatenation_sign(first, second):
    """The sign that sorts the bits of `first`, written before those of
    `second`, into one increasing word: `insertion_sign(second, j)` for each
    bit j of first, as j moves past the bits of second below it."""
    sign = 1
    while first:
        j = first & -first
        first ^= j
        sign *= insertion_sign(second, j)
    return sign


def insert_bits(chain, bits, out=None):
    """The sum over the bits b of `bits` of b ^ chain on {word: coeff}: each
    b not in a word x enters it as x | b with `insertion_sign`'s parity,
    (-1)^popcount(x & (b - 1)), the one chain-level insertion of the
    package.  The terms are added into `out` when it is given, so calls
    grouped by the key that fixes `bits` share one sum, and `out` is
    returned; a coefficient that cancels to zero is kept."""
    if out is None:
        out = {}
    for word, c in chain.items():
        rest = bits & ~word
        while rest:
            b = rest & -rest
            rest ^= b
            out[word | b] = out.get(word | b, 0) + (-c if (word & (b - 1)).bit_count() & 1 else c)
    return out


def insertion_columns(words, inside):
    """(dims, columns) of an exterior complex on bitmasks, for
    `column_homology`: `words` are its basis in order, `inside` the bitmask
    of the bits that may enter a word.  The word x sits in degree
    -popcount(x); each bit b of inside & ~x enters it as x | b with
    `insertion_sign`, and a target that is not one of `words` is dropped.
    The columns list their rows by ascending b.  An insertion adds one bit,
    so a degree's words are looked up among the next degree's alone, and
    when no occupied degree d has d - 1 occupied as well no target can be a
    word: the complex has no columns, and no index or scan is made."""
    by_degree = {}
    for word in words:
        by_degree.setdefault(-word.bit_count(), []).append(word)
    columns = {}
    for d, sources in by_degree.items():
        if not (targets := by_degree.get(d - 1)):
            continue
        rows = {word: i for i, word in enumerate(targets)}
        for j, word in enumerate(sources):
            column = []
            rest = inside & ~word
            while rest:
                b = rest & -rest
                rest ^= b
                if (i := rows.get(word | b)) is not None:
                    column.append((i, -1 if (word & (b - 1)).bit_count() & 1 else 1))
            if column:
                columns.setdefault(d, {})[j] = column
    return {d: len(sources) for d, sources in by_degree.items()}, columns


def insertion_complex(words, inside, label, shift=0):
    """`insertion_columns(words, inside)` labelled for cycle classes: the
    ChainComplex whose basis names each word label(word), block degree d
    placed at shift + d, with the columns as they are."""
    _, columns = insertion_columns(words, inside)
    basis = {}
    for word in words:
        basis.setdefault(shift - word.bit_count(), []).append(label(word))
    return ChainComplex(basis, {shift + d: cols for d, cols in columns.items()})


def _label_index(basis):
    return {d: {lab: i for i, lab in enumerate(labels)} for d, labels in basis.items()}


class ChainComplex:
    """Finite complex of free Z-modules with labelled bases.

    basis: {degree: [label, ...]}; columns: {degree d: {col: [(row, value),
    ...]}}, the nonzero columns of d: C_d -> C_{d-1} in the bases' label
    order, the shape `column_homology` reads.  An index outside the basis
    and d(d(x)) != 0 are refused at construction.
    """

    def __init__(self, basis, columns):
        self.basis = {d: list(labels) for d, labels in basis.items()}
        self._index = None
        self.columns = dict(columns)
        self._groups = None
        self._present = {}
        for d, cols in self.columns.items():
            n, rows = self.dim(d), self.dim(d - 1)
            if any(not 0 <= j < n for j in cols):
                raise ValueError(f"differential at degree {d}: bad column count")
            if any(not 0 <= i < rows for column in cols.values() for i, _ in column):
                raise ValueError(f"differential at degree {d}: bad row count")
        self.check_squares_to_zero()

    @classmethod
    def from_boundary(cls, basis, boundary):
        """Complex on `basis` ({degree: [label, ...]}, label order kept) whose
        differential sends a label to `boundary(label)`, {label: coeff} in the
        degree below, written into the columns; a target outside that
        degree's basis raises."""
        index = _label_index(basis)
        columns = {}
        for d, labels in basis.items():
            rows, columns[d] = index.get(d - 1, {}), {}
            for j, label in enumerate(labels):
                column = []
                for target, c in boundary(label).items():
                    i = rows.get(target)
                    if i is None:
                        raise ValueError(f"boundary of {label!r} hits {target!r}, "
                                         "which is not in the target basis")
                    if c:
                        column.append((i, c))
                if column:
                    columns[d][j] = column
        C = cls(basis, columns)
        C._index = index
        return C

    @property
    def index(self):
        """{degree: {label: position}}, built once, on first use."""
        if self._index is None:
            self._index = _label_index(self.basis)
        return self._index

    @property
    def degrees(self):
        return sorted(self.basis)

    def dim(self, d):
        return len(self.basis.get(d, ()))

    def differential(self, d):
        """The IntMatrix of d: C_d -> C_{d-1}, built from the columns."""
        return _column_matrix(self.dim(d - 1), self.dim(d), self.columns.get(d, {}))

    def check_squares_to_zero(self):
        """`check_columns` on the differentials' columns."""
        check_columns(self.columns)

    def vector(self, d, chain):
        """Sparse coordinate vector of {label: coeff} in the degree-d basis."""
        idx = self.index.get(d, {})
        out = {}
        for lab, c in chain.items():
            if not c:
                continue
            if lab not in idx:
                raise KeyError(f"label {lab!r} not in degree {d} basis")
            out[idx[lab]] = c
        return out

    def homology_all(self):
        """{d: H_d}, nontrivial groups only, by `column_homology`'s rule on the
        columns (d^2 = 0 was checked at construction), computed once."""
        if self._groups is None:
            dims = {d: len(labels) for d, labels in self.basis.items()}
            self._groups = _column_groups(dims, self.columns)
        return dict(self._groups)

    def homology(self, d):
        """H_d as rank plus torsion; degrees outside the range give 0."""
        return self.homology_all().get(d, TRIVIAL_GROUP)

    # -- cycle classes ------------------------------------------------------

    def _presentation(self, d):
        """Cached kernel basis + presentation of H_d used for coordinates."""
        if d in self._present:
            return self._present[d]
        A = self.differential(d)
        B = self.differential(d + 1)
        snf_a = smith_normal_form(A)
        kcols = snf_a.kernel_columns()
        kpos = {j: t for t, j in enumerate(kcols)}
        # image columns expressed in kernel coordinates
        x_entries = {}
        for (i, j), v in (snf_a.vinv @ B).entries.items():
            if i not in kpos:
                raise AssertionError("image column escapes the kernel")
            x_entries[(kpos[i], j)] = v
        X = IntMatrix(len(kcols), B.cols, x_entries)
        snf_x = smith_normal_form(X)
        orders = []
        for t in range(len(kcols)):
            dt = snf_x.diag[t] if t < len(snf_x.diag) else 0
            orders.append(dt)
        data = (snf_a, kpos, snf_x, tuple(orders))
        self._present[d] = data
        return data

    def class_of(self, d, chain):
        """Coordinates of [chain] in H_d; raises if chain is not a cycle."""
        vec = self.vector(d, chain)
        if self.differential(d).apply(vec):
            raise ValueError("chain is not a cycle")
        snf_a, kpos, snf_x, orders = self._presentation(d)
        w = {}
        for i, v in snf_a.vinv.apply(vec).items():
            if i in kpos:
                w[kpos[i]] = v
            elif v:
                raise AssertionError("cycle escapes the kernel")
        u = snf_x.U.apply(w)
        coords, kept = [], []
        for t, order in enumerate(orders):
            c = u.get(t, 0)
            if order == 1:
                continue
            coords.append(c % order if order else c)
            kept.append(order)
        return HomologyClass(tuple(coords), tuple(kept))

    def is_boundary(self, d, chain):
        return self.class_of(d, chain).is_boundary
