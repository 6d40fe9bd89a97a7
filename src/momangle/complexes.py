"""Simplicial complexes on labelled vertex sets and the substitution construction.

A complex on the vertex set {1..m} (m <= 64) is kept as the bitmasks of its
facets, bit v - 1 for vertex v.  Facets come first: `from_facets` (and so
every JSON complex) keeps its validated facets less those inside another,
and `simplex`, `boundary`, `join` and `substitute` write theirs in closed
form.  Only the face-list constructor (`__init__`) checks downward closure,
as the one input that can break it.  The faces are built from the facets
on first read (`face_masks`, the face index, `faces`); facets, dimension,
vertices, `==` and `hash` never build them.  Faces as increasing label
tuples (`faces`, `facets`, `faces_within`) are decoded from the masks by
`mask_face`.  Sphere subcomplexes produced elsewhere may omit singletons
(ghost vertices), which is fine as long as downward closure holds.
The facets give K's face indicator, one integer of 2^m bits kept on K
(`face_indicator`), from which the missing faces come by one bit-parallel
pass over the vertex sets (`_missing_by_shifts`) while m <= 22, and from a
scan of the faces above that; the cone-free sets that every Z_K table
reads by another such pass (`_cone_free_by_shifts`), which reads no
missing face, and K_J (`full_subcomplex`) by a trace of each facet.  The
faces, read by every face reader in the layout K's density chose, and the
missing faces each get one `VertexIndex` (`face_index`, `Generators`),
whose `within(S)` gives those of the full subcomplex K_S.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import accumulate, chain
from operator import or_

from .exactalg import ChainComplex


class SizeLimitError(ValueError):
    """Input exceeds the documented desk-scale bound."""


def face(vertices):
    """Canonical face: strictly increasing tuple of positive labels."""
    t = tuple(sorted(set(map(int, vertices))))
    if len(t) != len(tuple(vertices)):
        raise ValueError(f"duplicate vertex in face {tuple(vertices)}")
    if t and t[0] < 1:
        raise ValueError(f"vertex labels must be positive: {t}")
    return t


def face_mask(f):
    """Bitmask of a set of labels: bit v - 1 for vertex v."""
    m = 0
    for v in f:
        m |= 1 << (v - 1)
    return m


def mask_face(mask):
    """The vertices of a bitmask, ascending: the inverse of `face_mask`."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def _masks_of(m, faces):
    """The bitmask of each face, lazily, after `face` and the range check."""
    for f in faces:
        f = face(f)
        if f and f[-1] > m:
            raise ValueError(f"label {f[-1]} out of range 1..{m}")
        yield face_mask(f)


def _label_masks(m, facets):
    """The set of the facets' bitmasks, in one pass, when `facets` is a list
    of lists of distinct int labels in 1..m; None at the first fault, and
    `_masks_of` reads the input again and names the fault."""
    if type(facets) is not list:
        return None
    masks = set()
    for f in facets:
        if type(f) is not list:
            return None
        mask = 0
        for v in f:
            if type(v) is not int or not 0 < v <= m or mask >> v - 1 & 1:
                return None
            mask |= 1 << v - 1
        masks.add(mask)
    return masks


def _submasks(mask):
    """Every bitmask inside `mask`, 0 included: a run of consecutive bits
    (the simplex's one facet) as the multiples of its low bit, read lazily,
    any other mask as a list built one bit at a time."""
    low = mask & -mask
    if not mask & (mask + low):
        return range(0, mask + 1, low or 1)
    subs = [0]
    while mask:
        bit = mask & -mask
        mask ^= bit
        subs += [s | bit for s in subs]
    return subs


def _maximal(masks):
    """The masks of the set `masks` that lie inside no other of them.  A
    mask can only lie inside a larger one, so each is tested against those
    kept with more bits (f inside g when f & g is f), never of one size."""
    kept, larger, size = [], 0, None
    for f in sorted(masks, key=int.bit_count, reverse=True):
        if f.bit_count() != size:
            size, larger = f.bit_count(), len(kept)
        if f not in map(f.__and__, kept[:larger]):
            kept.append(f)
    return kept


def _refuse_past_bitset(m):
    if m > 64:
        raise SizeLimitError(f"m={m} exceeds the bitset bound of 64")


class SimplicialComplex:
    """Immutable downward-closed face family on {1..m}, stored as the
    bitmasks of its facets, ascending; the complex {()} has the one facet
    0.  The face list (`__init__`) is the one input that can break downward
    closure, so it alone is checked; every other constructor writes facets
    that are maximal by construction.  The faces (`face_masks`, `faces`,
    `face_index`) are built from the facets on first read, and facets,
    dimension, vertices, `==` and `hash` never build them.
    """

    __slots__ = ("m", "_facet_masks", "_face_masks", "_by_size", "_index", "_faces",
                 "_indicator", "_mf", "_generators")

    def __init__(self, m, faces):
        """The complex of the face list `faces`, the empty face added:
        refuses m past the bitset bound before it reads `faces`, then a face
        that is not downward closed, and finds the facets."""
        _refuse_past_bitset(m)
        masks = frozenset(chain((0,), _masks_of(m, faces)))
        for mask in masks:
            rest = mask
            while rest:
                bit = rest & -rest
                rest ^= bit
                if mask ^ bit not in masks:
                    raise ValueError(f"not downward closed: {mask_face(mask ^ bit)} "
                                     f"missing under {mask_face(mask)}")
        # downward closed, so a face is a facet iff no one-vertex extension is a face
        facets = list(masks)
        for bit in (1 << i for i in range(m)):
            facets = [f for f in facets if f & bit or f | bit not in masks]
        self._adopt(m, facets)
        self._face_masks = masks

    @classmethod
    def _from_facet_masks(cls, m, facets):
        """The complex whose facets are the bitmasks `facets`, maximal and
        distinct, unchecked; no facet at all gives the complex {()}."""
        _refuse_past_bitset(m)
        return cls.__new__(cls)._adopt(m, facets)

    def _adopt(self, m, facets):
        self.m = m
        self._facet_masks = tuple(sorted(facets)) or (0,)
        self._face_masks = self._by_size = self._index = self._faces = None
        self._indicator = self._mf = self._generators = None
        return self

    @classmethod
    def from_facets(cls, m, facets):
        """Downward closure of the facets plus all singletons and the empty
        face: its facets are the given ones (repeated and empty ones
        allowed) less those inside another, and each vertex in none of them
        as a facet of its own."""
        _refuse_past_bitset(m)
        masks = _label_masks(m, facets)
        if masks is None:
            masks = set(_masks_of(m, facets))
        covered = reduce(or_, masks, 0)
        masks.update(1 << i for i in range(m) if not covered >> i & 1)
        return cls._from_facet_masks(m, _maximal(masks))

    # -- basics --------------------------------------------------------------

    @property
    def face_masks(self):
        """Every face bitmask, the subsets of the facets, built on first read."""
        if self._face_masks is None:
            self._face_masks = frozenset(chain.from_iterable(map(_submasks, self._facet_masks)))
        return self._face_masks

    @property
    def faces(self):
        """Every face as a tuple of labels, decoded from the masks on first read."""
        if self._faces is None:
            self._faces = frozenset(map(mask_face, self.face_masks))
        return self._faces

    @property
    def facets(self):
        """The maximal faces, sorted by (size, labels)."""
        return tuple(sorted(map(mask_face, self._facet_masks), key=lambda f: (len(f), f)))

    def __contains__(self, f):
        f = face(f)
        return not f or f[-1] <= self.m and self.face_index().has(face_mask(f))

    def __eq__(self, other):
        return (isinstance(other, SimplicialComplex)
                and self.m == other.m and self._facet_masks == other._facet_masks)

    def __hash__(self):
        return hash((self.m, self._facet_masks))

    def __repr__(self):
        return f"SimplicialComplex(m={self.m}, facets={list(self.facets)})"

    def dimension(self):
        return max(map(int.bit_count, self._facet_masks)) - 1

    def _vertex_mask(self):
        """The bitmask of the vertices that are faces: the facets' union."""
        return reduce(or_, self._facet_masks)

    def vertices(self):
        return mask_face(self._vertex_mask())

    def has_all_singletons(self):
        return self._vertex_mask() == (1 << self.m) - 1

    def _sorted_masks(self):
        """The face bitmasks sorted by (size, labels), built on the first call.
        Each size comes from the one below, in order: every face, in turn,
        plus every vertex above its top that keeps it a face; by downward
        closure each face comes once, from itself less its top vertex."""
        if self._by_size is None:
            bits, faces = [1 << i for i in range(self.m)], self.face_masks
            order, start = [0], 0
            while start < len(order):
                level, start = order[start:], len(order)
                order += [f | b for f in level for b in bits[f.bit_length():] if f | b in faces]
            self._by_size = order
        return self._by_size

    def face_indicator(self):
        """(F, n): the integer F of 2^m bits whose bit p is set when the vertex
        set p is a face (`_face_indicator`), and n, its popcount, the number of
        faces; built from the facets on the first call and kept, for the
        missing-face pass, the cone-free pass and a dense face index read it."""
        if self._indicator is None:
            faces = _face_indicator(self.m, self._facet_masks)
            self._indicator = faces, faces.bit_count()
        return self._indicator

    def face_index(self):
        """K's faces as a `VertexIndex`, built on the first call in the layout
        chosen here once per K: its face indicator (`IndicatorIndex`) when
        the faces fill an eighth or more of the 2^m vertex sets (m <=
        SHIFT_PASS_MAX_VERTICES), else its sorted faces (`FaceIndex`)."""
        if self._index is None:
            faces, count = self.face_indicator() if self.m <= SHIFT_PASS_MAX_VERTICES else (0, 0)
            self._index = (IndicatorIndex(faces, self.m) if count << 3 >= 1 << self.m
                           else FaceIndex(self._sorted_masks, self.face_masks, self.m))
        return self._index

    def faces_within(self, subset):
        """Faces contained in `subset`, keeping original labels, sorted by
        (size, labels); labels of `subset` below 1 are ignored."""
        return list(map(mask_face, self.face_masks_within(v for v in subset if v > 0)))

    def face_masks_within(self, subset):
        """Bitmasks of the faces contained in `subset`, in `faces_within`'s order."""
        outside = ~face_mask(subset)
        return [mask for mask in self._sorted_masks() if not mask & outside]

    # -- missing faces ---------------------------------------------------------

    def missing_faces(self):
        """Minimal non-faces, ghost vertices among them, sorted by
        (cardinality, lexicographic): from the facets by one bit-parallel
        pass while m <= SHIFT_PASS_MAX_VERTICES (`_missing_by_shifts`),
        above that by a scan of the faces (`_missing_by_scan`)."""
        if self._mf is None:
            if self.m <= SHIFT_PASS_MAX_VERTICES:
                found = _missing_by_shifts(self.m, self.face_indicator()[0])
            else:
                found = _missing_by_scan(self.m, self.face_masks)
            self._mf = tuple(sorted(map(mask_face, found), key=lambda f: (len(f), f)))
        return self._mf

    def generators(self):
        """The `Generators` of `missing_faces`, built on the first call."""
        if self._generators is None:
            self._generators = Generators(self.missing_faces())
        return self._generators

    def missing_faces_within(self, subset):
        """Missing faces of the full subcomplex K_S in K's labels, ghost
        vertices of K_S included, sorted as `missing_faces` sorts them: the
        missing faces of K inside S (`Generators.within`)."""
        smask = face_mask(subset)
        if smask >> self.m:
            raise ValueError("subset outside vertex range")
        gens = self.generators()
        return [gens.faces[q - 1] for q in mask_face(gens.within(smask))]

    # -- subcomplexes -----------------------------------------------------------

    def full_subcomplex(self, subset):
        """K_J re-indexed on 1..|J|, from the facets with no face read: the
        largest traces F & J of K's facets, written on their vertices'
        positions in J, so vertex i of K_J is the i-th smallest label of J."""
        js = sorted(set(subset))
        if any(not 1 <= v <= self.m for v in js):
            raise ValueError("subset outside vertex range")
        traces = {sum(1 << i for i, v in enumerate(js) if f >> (v - 1) & 1)
                  for f in self._facet_masks}
        return SimplicialComplex._from_facet_masks(len(js), _maximal(traces))

    def to_json_dict(self):
        return {"m": self.m, "facets": [list(f) for f in self.facets if f]}

    @classmethod
    def from_json_dict(cls, data, max_vertices=None):
        """K from {"m": ..., "facets": [[...], ...]}.  m and every label must
        be JSON integers (not bools, floats or strings) and m >= 0, then a K
        of more than `max_vertices` vertices is refused before it is built;
        lists of ints within the bound go straight to `from_facets`."""
        m, facets = data["m"], data["facets"]
        if not (type(m) is int and 0 <= m and (max_vertices is None or m <= max_vertices)
                and type(facets) is list and {*map(type, facets)} <= {list}
                and {*map(type, chain.from_iterable(facets))} <= {int}):
            if type(m) is not int or m < 0:
                raise ValueError(f"m must be a nonnegative integer, not {m!r}")
            for f in facets:
                for v in f:
                    if type(v) is not int:
                        raise ValueError(f"vertex labels must be integers, not {v!r}")
            if max_vertices is not None and m > max_vertices:
                raise SizeLimitError(f"complex has {m} vertices, above the bound {max_vertices}")
        return cls.from_facets(m, facets)


SHIFT_PASS_MAX_VERTICES = 22  # 2^22 bits: a table of 512 KiB per vertex


@lru_cache(maxsize=4)
def _upper_halves(m):
    """For each vertex i < m, the integer of 2^m bits whose bit p is set
    exactly when the vertex set p holds i.  The sets without i are the low
    half of every run of 2^(i+1) bits, and those without i - 1 are that
    XOR itself shifted by 2^(i-1).  A bounded memo."""
    every = (1 << (1 << m)) - 1
    halves, low = [], every >> (1 << m >> 1)
    for i in reversed(range(m)):
        halves.append(every ^ low)
        low ^= low << (1 << i >> 1)
    return tuple(reversed(halves))


def _face_indicator(m, facets):
    """The integer of 2^m bits with bit p set when the vertex set p is a face
    of the complex with the facet bitmasks `facets`: the facets marked, and
    closed downward with one shift per vertex (face p holding i marks p - 2^i)."""
    marks = bytearray(max(1, 1 << m >> 3))
    for f in facets:
        marks[f >> 3] |= 1 << (f & 7)
    faces = int.from_bytes(marks, "little")
    for i, upper in enumerate(_upper_halves(m)):
        faces |= (faces & upper) >> (1 << i)
    return faces


def _set_bits(x):
    """The positions of the set bits of x, ascending: one step per bit while
    there are 16 or fewer, each step a few operations on x, otherwise off
    its binary digits, whose scan is linear in its length.  The steps are
    the faster up to 16-32 set bits at every length from 2^6 to 2^20 bits,
    and most star quotients list one to a few faces."""
    if x.bit_count() > 16:
        return [digit.start() for digit in re.finditer("1", format(x, "b")[::-1])]
    out = []
    while x:
        low = x & -x
        x ^= low
        out.append(low.bit_length() - 1)
    return out


def _missing_by_shifts(m, faces):
    """The bitmasks of the minimal non-faces of the complex on m vertices
    with the face indicator `faces` (`_face_indicator`), ascending, by one
    bit-parallel pass over the 2^m vertex sets: a non-face whose every set
    one vertex smaller is a face."""
    broken = 0  # the sets p that hold a vertex i with p - 2^i no face
    for i, upper in enumerate(_upper_halves(m)):
        broken |= upper & ~(faces << (1 << i))
    return _set_bits(((1 << (1 << m)) - 1) & ~(faces | broken))


def _cone_free_by_shifts(m, faces):
    """The integer of 2^m bits whose bit S is set when K_S has no cone
    point, S = 0 among them, for K on m vertices with the face indicator
    `faces` (`_face_indicator`), to be listed (`_set_bits`) or filtered: v
    is no cone point of K_S when S holds I + v, I a face without v and I + v
    none.  Per v one AND and one shift of the indicator mark those I + v,
    and one shift per vertex closes them upward into U_v; S is cone-free
    when each v is outside S or S lies in U_v."""
    halves, free = _upper_halves(m), (1 << (1 << m)) - 1
    for v, holds_v in enumerate(halves):
        up = (faces & ~holds_v & ~(faces >> (1 << v))) << (1 << v)
        for i, upper in enumerate(halves):
            up |= (up & ~upper) << (1 << i)
        free &= ~holds_v | up
    return free


def _missing_by_scan(m, masks):
    """The bitmasks of the minimal non-faces of the complex with the face
    bitmasks `masks`, by a scan of the faces: a missing face less its top
    vertex is a face, so each is found once, as a face plus a vertex above
    its top whose every one-smaller subset is a face."""
    above = [[1 << i for i in range(t, m)] for t in range(m + 1)]
    found = []
    for mask in masks:
        for bit in above[mask.bit_length()]:
            cand = mask | bit
            if cand in masks:
                continue
            rest = mask
            while rest:
                low = rest & -rest
                if cand ^ low not in masks:
                    break
                rest ^= low
            else:
                found.append(cand)
    return found


_BINARY_DIGITS = bytes.maketrans(b"\0\1", b"01")


class VertexIndex:
    """Bitmasks `order` over the vertices 1..m with one bitset over them per
    vertex, bit i for order[i] (`every` sets them all): `containing()[v - 1]`
    marks the members that contain v, and `within(smask)` those inside the
    vertex set smask, every member less those at a vertex outside it.  The
    bitsets are built for every vertex at once on first use, as the columns
    of one string table of binary digits, each member f written as
    `bin(f | 1 << m)` and read by `int` with a stride of m + 3: linear in the
    members, with no big-integer shift and no Python step per member."""

    __slots__ = ("order", "every", "_m", "_containing")

    def __init__(self, order, m):
        self.order, self.every, self._m, self._containing = order, (1 << len(order)) - 1, m, None

    def containing(self):
        if self._containing is None:
            m = self._m
            # "0b1" and then the digits of bits m - 1 down to 0
            table = "".join(map(bin, map((1 << m).__or__, reversed(self.order))))
            self._containing = [int(table[m + 3 - u::m + 3], 2) for u in range(1, m + 1)]
        return self._containing

    def within(self, smask):
        containing, inside = self._containing or self.containing(), self.every
        outside = ((1 << self._m) - 1) & ~smask
        while outside:
            low = outside & -outside
            inside &= ~containing[low.bit_length() - 1]
            outside ^= low
        return inside


class IndicatorIndex(VertexIndex):
    """The dense layout of `face_index`: the face indicator `faces` as a
    `VertexIndex` whose member p is the vertex set p, so `every` is the
    indicator and `containing()` the sets that hold each vertex
    (`_upper_halves`).  It builds no face list."""

    __slots__ = ()

    def __init__(self, faces, m):
        self.order, self.every, self._m, self._containing = range(1 << m), faces, m, _upper_halves(m)

    def has(self, f):
        return bool(self.every >> f & 1)

    def star(self, v):
        """The faces f with f + v a face, F & H_v | F >> 2^(v-1) & ~H_v (H_v the
        sets that hold v), as one AND, the indicator F being closed downward."""
        return self.every & (self._containing[v - 1] | self.every >> (1 << (v - 1)))

    def listed(self, bits):
        """The sets of `bits` by size and labels, both descending: the labels
        descend as the 24-bit word reversed byte by byte ascends, less 2^24
        per vertex, so no table of the 2^m sets is built."""
        out = _set_bits(bits)
        return out if len(out) < 2 else sorted(out, key=lambda f: int.from_bytes(
            f.to_bytes(3, "big").translate(_REVERSED_BYTES), "little") - (f.bit_count() << 24))


_REVERSED_BYTES = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))  # m <= 22 < 24


class FaceIndex(VertexIndex):
    """The sparse layout of `face_index`: K's faces `is_face` in the order
    `sort()` (`_sorted_masks`), so `within(S)` marks the faces of K_S.  `has`
    reads the face set alone; the order is built when first needed, and
    `star(v)` for v alone on its first call."""

    __slots__ = ("_sort", "_is_face", "_star")

    def __init__(self, sort, is_face, m):
        self.order, self.every, self._m, self._containing = None, (1 << len(is_face)) - 1, m, None
        self._sort, self._is_face, self._star = sort, is_face, {}

    def _order(self):
        if self.order is None:
            self.order = self._sort()
        return self.order

    def containing(self):
        self._order()
        return super().containing()

    def has(self, f):
        return f in self._is_face

    def star(self, v):
        if (bits := self._star.get(v)) is None:
            with_v = map((1 << (v - 1)).__or__, reversed(self._order()))
            flags = bytes(map(self._is_face.__contains__, with_v))
            bits = self._star[v] = int(flags.translate(_BINARY_DIGITS), 2)
        return bits

    def listed(self, bits):
        """The faces of `bits` from the highest bit down: by size and labels,
        both descending."""
        order = self._order()
        return [order[i] for i in reversed(_set_bits(bits))]


class Generators(VertexIndex):
    """A `VertexIndex` over generator bitmasks `masks`: K's missing faces
    `faces` in `missing_faces`' order, named once by `word_text` in `names`,
    or bitmasks alone (faces None), such as polarised monomials.  A word is
    a bitmask of generator indices, bit q for the q-th generator, so
    `within(S)` is the word of the generators inside S."""

    __slots__ = ("faces", "masks", "names", "_position")

    def __init__(self, faces, masks=None):
        masks = list(map(face_mask, faces)) if masks is None else masks
        super().__init__(masks, reduce(or_, masks, 0).bit_length())
        self.faces, self.masks = faces, masks
        self.names = () if faces is None else tuple(map(word_text, faces))
        self._position = None

    def union(self, word):
        """Vertex bitmask of the union of the word's generators."""
        masks, union = self.masks, 0
        while word:
            low = word & -word
            union |= masks[low.bit_length() - 1]
            word ^= low
        return union

    def word(self, labels):
        """The word of face tuples `labels`, each of which must be a generator,
        and none twice."""
        if self._position is None:
            self._position = {F: q for q, F in enumerate(self.faces)}
        if unknown := set(labels) - self._position.keys():
            raise ValueError(f"factors {sorted(unknown)} are not missing faces of K")
        word = 0
        for F in labels:
            if word >> self._position[F] & 1:
                raise ValueError(f"repeated factor {F} in exterior word")
            word |= 1 << self._position[F]
        return word


# -- point / simplex helpers ------------------------------------------------

def point():
    return simplex(1)


def simplex(k):
    """Full simplex on 1..k: the one facet of every vertex."""
    return SimplicialComplex._from_facet_masks(k, [(1 << k) - 1])


def simplex_boundary(k):
    """boundary of the (k-1)-simplex on 1..k; for k=1 the empty complex {()}."""
    return SimplicialComplex._from_facet_masks(k, [((1 << k) - 1) ^ 1 << i for i in range(k)])


def boundary(K):
    """Complex generated by all non-maximal faces of K (bd of a simplex
    recovers the usual boundary sphere); vertices that were facets of K
    become ghosts.  Its facets are the F - v, F a facet of K and v in F,
    that lie inside no other of them."""
    return SimplicialComplex._from_facet_masks(
        K.m, _maximal({F ^ 1 << (v - 1) for F in K._facet_masks for v in mask_face(F)}))


def join(K1, K2):
    """Simplicial join; the second factor is relabelled onto m1+1..m1+m2.
    Its facets are the unions of one facet of each."""
    return SimplicialComplex._from_facet_masks(
        K1.m + K2.m, (f1 | f2 << K1.m for f1 in K1._facet_masks for f2 in K2._facet_masks))


@dataclass(frozen=True)
class Substitution:
    """Result of substituting parts into a slot complex.

    offsets[i] is added to part i's labels: part i occupies the contiguous
    block offsets[i]+1 .. offsets[i]+parts[i].m, in slot order.
    """

    complex: SimplicialComplex
    offsets: tuple

    def map_label(self, part_index, v):
        return self.offsets[part_index] + v


def substitute(K, parts):
    """Substitution complex K(K_1,...,K_m): faces are unions of nonempty
    part faces indexed by a face of K.  Parts are relabelled onto
    consecutive blocks.  Its facets are the unions of one facet per part
    over each facet of K_U, U the slots whose parts have a vertex: a part
    {()} fills no slot."""
    if len(parts) != K.m:
        raise ValueError(f"need {K.m} parts, got {len(parts)}")
    offsets = list(accumulate((p.m for p in parts), initial=0))
    pools = [[f << off for f in p._facet_masks if f] for p, off in zip(parts, offsets)]
    usable = sum(1 << s for s, pool in enumerate(pools) if pool)
    slots = {F & usable for F in K._facet_masks}

    def unions(slot_face):
        choices = [0]
        for s in mask_face(slot_face):
            choices = [c | f for c in choices for f in pools[s - 1]]
        return choices
    facets = chain.from_iterable(map(unions, _maximal(slots)))
    return Substitution(SimplicialComplex._from_facet_masks(offsets[-1], facets),
                        tuple(offsets[:-1]))


def substitution_missing_faces(K, parts):
    """Missing faces of the substitution via the disjoint-union formula:
    each part's own missing faces, plus one transversal per missing face of
    the slot complex (one vertex out of each involved part)."""
    offsets = list(accumulate((p.m for p in parts), initial=0))
    out = []
    for i, p in enumerate(parts):
        for mf in p.missing_faces():
            out.append(tuple(v + offsets[i] for v in mf))
    for slot_mf in K.missing_faces():
        transversals = [()]
        for s in slot_mf:
            part = parts[s - 1]
            shift = offsets[s - 1]
            verts = [v + shift for v in part.vertices()]
            transversals = [t + (v,) for t in transversals for v in verts]
        out.extend(tuple(sorted(t)) for t in transversals)
    return sorted(set(out), key=lambda f: (len(f), f))


def is_subcomplex(K_small, K_big, labelling=None):
    """True iff every face of K_small maps to a face of K_big.

    labelling maps each vertex of K_small to a label of K_big (default:
    identity); a vertex sent outside 1..K_big.m is no face of K_big."""
    if labelling is None:
        labelling = {v: v for v in range(1, K_small.m + 1)}
    if len(set(labelling.values())) != len(labelling):
        raise ValueError("labelling must be injective")
    bits = {}
    for v in K_small.vertices():
        if v not in labelling:
            raise ValueError(f"labelling leaves out vertex {v}")
        if not 1 <= labelling[v] <= K_big.m:
            return False
        bits[v] = 1 << (labelling[v] - 1)
    has = K_big.face_index().has  # K_big is closed downward: K_small's facets suffice
    return all(has(sum(map(bits.get, mask_face(f)))) for f in K_small._facet_masks)


@dataclass(frozen=True)
class ShiftedResult:
    shifted: bool
    witnesses: tuple  # the vertex order (ascending significance) that works, if any

    def __bool__(self):
        return self.shifted


def _dominates(K, u, v):
    """Does u dominate v: does every face holding v but not u stay a face
    with v replaced by u?  Facets suffice: such a face f lies in a facet F,
    and f - v + u lies in F - v + u."""
    ubit, vbit, has = 1 << (u - 1), 1 << (v - 1), K.face_index().has
    return all(not fmask & vbit or has(fmask ^ vbit | ubit) for fmask in K._facet_masks)


def _order_is_shifted(K, order):
    """Is K shifted for `order` (smallest first): does each vertex dominate
    every earlier one?  Dominance is transitive, so each vertex dominating
    the one before it is enough."""
    return all(_dominates(K, u, v) for v, u in zip(order, order[1:]))


def is_shifted(K, order=None):
    """Shiftedness test.

    With `order` given (a permutation of 1..m, smallest first), only that
    order is checked.  Otherwise the vertices are sorted by how many others
    they dominate, labels ascending on ties, and that order is checked: K is
    shifted iff dominance is total, and then this order is the
    lexicographically first witness (Klivans, Discrete Math. 2007).  Either
    way `witnesses` holds the order checked if it works.
    """
    vertices = tuple(range(1, K.m + 1))
    if order is None:
        count = {u: sum(_dominates(K, u, v) for v in vertices if v != u) for u in vertices}
        order = tuple(sorted(vertices, key=lambda u: (count[u], u)))
    else:
        order = tuple(order)
        if sorted(order) != list(vertices):
            raise ValueError("order must be a permutation of 1..m")
    ok = _order_is_shifted(K, order)
    return ShiftedResult(ok, (order,) if ok else ())


# -- reduced simplicial chains ------------------------------------------------

def reduced_chain_complex(faces):
    """Reduced chain complex of a face family (empty simplex in degree -1)."""
    basis = {}
    for f in faces:
        basis.setdefault(len(f) - 1, []).append(tuple(f))
    for fs in basis.values():
        fs.sort()
    return ChainComplex.from_boundary(
        basis, lambda f: {f[:k] + f[k + 1:]: (-1) ** k for k in range(len(f))})


def reduced_homology(K_or_faces):
    """Reduced integral homology, degree -> HomologyGroup (nontrivial only)."""
    faces = K_or_faces.faces if isinstance(K_or_faces, SimplicialComplex) else K_or_faces
    return reduced_chain_complex(faces).homology_all()


def is_acyclic(K_or_faces):
    return not reduced_homology(K_or_faces)


# -- text forms ----------------------------------------------------------------
#
# Builder expressions and chains are read by one `Scanner`; brackets are
# read by two patterns on the raw text (`whitehead.parse_whitehead`), with
# no scanner built.  Chains are signed sums (`SignedSum`), read by
# `read_signed_sum` and written by `signed_sum_text`, in the order of keys
# that the walk writing each word builds: labels as digits of one bit
# width, a zero digit closing each label tuple, zero digits padding the
# keys to one length.

class ParseError(ValueError):
    def __init__(self, message, pos):
        super().__init__(f"{message} (line 1, column {pos + 1})")
        self.pos = pos


class Scanner:
    """Reader over one line of text that skips whitespace between tokens."""

    def __init__(self, text):
        self.text = text
        self.pos = 0

    def peek(self):
        """The next non-space character, or "" at the end."""
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos:self.pos + 1]

    def accept(self, token):
        """Consume `token` if it comes next."""
        self.peek()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def expect(self, token):
        if not self.accept(token):
            raise ParseError(f"expected {token!r}", self.pos)

    def token(self, test, what):
        """The longest nonempty run of characters passing `test`."""
        self.peek()
        start = self.pos
        while self.pos < len(self.text) and test(self.text[self.pos]):
            self.pos += 1
        if start == self.pos:
            raise ParseError(f"expected {what}", start)
        return self.text[start:self.pos]

    def integer(self):
        return int(self.token(str.isdecimal, "an integer"))

    def items(self, read, sep=","):
        """`read() {sep read()}` as a list."""
        out = [read()]
        while self.accept(sep):
            out.append(read())
        return out

    def end(self):
        if self.peek():
            raise ParseError("trailing input", self.pos)


def read_text(text, read):
    """`read(scanner)` over the whole of `text`."""
    sc = Scanner(text)
    value = read(sc)
    sc.end()
    return value


def read_signed_sum(sc, read_term, zero, stop=""):
    """Read `[+|-] term {(+|-) term}` up to `stop` or the end of the text.

    A term is `[INT '*'] item`, where `read_term(sc)` reads the item and
    returns it as a chain (the empty word is the item `1`); the text `0` is
    `zero`, the chain the sum starts from."""
    if sc.accept("0"):
        return zero
    total, sign = zero, 1
    if sc.accept("-"):
        sign = -1
    else:
        sc.accept("+")
    while True:
        coeff, mark = 1, sc.pos
        if sc.peek().isdecimal():
            coeff = sc.integer()
            if not sc.accept("*"):  # no coefficient: the item is the empty word `1`
                coeff, sc.pos = 1, mark
        total = total + read_term(sc).scaled(sign * coeff)
        if sc.peek() in (stop, ""):
            return total
        if sc.accept("-"):
            sign = -1
        else:
            sc.expect("+")
            sign = 1


class TextTable(dict):
    """Texts by key: those of `held` kept, any other key's written by
    `write` on each read, so no table grows with its input."""

    def __init__(self, write, held):
        super().__init__(held)
        self.write = write

    def __missing__(self, key):
        return self.write(key)


# what joins a term of coefficient c to the terms before it (` + 3*` for 3)
SIGNS = TextTable(lambda c: f" + {c}*" if c >= 0 else f" - {-c}*", {1: " + ", -1: " - "})


def signed_sum_text(rows):
    """A signed sum from its (key, `SIGNS[c]` + word) rows, sorted in place
    by key, the first ` - ` written `-` and ` + ` dropped; no rows give `0`."""
    rows.sort()
    terms = [term for _, term in rows] or [" + 0"]
    terms[0] = terms[0][3:] if terms[0][1] == "+" else "-" + terms[0][3:]
    return "".join(terms)


class SignedSum:
    """Sparse integer sum `terms = {key: coefficient}`, the arithmetic shared
    by cell, Taylor and bicomplex chains.  A subclass's `__init__` validates
    and normalises the keys and drops zero coefficients; results are rebuilt
    through it (`_like`, which a chain that holds more than its terms
    overrides), and a subclass writes its own `to_text`."""

    __slots__ = ("terms",)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __neg__(self):
        return self.scaled(-1)

    def __add__(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) + c
        return self._like(out)

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, k):
        return self._like({key: k * c for key, c in self.terms.items()})

    def _like(self, terms):
        """A chain of this one's kind with the given terms."""
        return type(self)(terms)

    def __repr__(self):
        return f"{type(self).__name__}({self.to_text()})"


def word_text(labels):
    """Vertex labels as one word: run together while every label is a single
    digit (`145`), otherwise joined by `.` (`1.10`, and `10.` alone)."""
    if max(labels, default=0) <= 9:
        return "".join(map(str, labels))
    return ".".join(map(str, labels)) + ("." if len(labels) == 1 else "")


def read_word(sc):
    """The labels of one `word_text` word; a dotted word with an empty label
    (`1..2`, `.1`) is refused at the word's column."""
    sc.peek()
    start = sc.pos
    text = sc.token(lambda ch: ch.isdecimal() or ch == ".", "vertex labels")
    if "." not in text:
        return tuple(map(int, text))
    labels = text.removesuffix(".").split(".")
    if not all(labels):
        raise ParseError(f"empty vertex label in {text!r}", start)
    return tuple(map(int, labels))


# -- builder expressions -------------------------------------------------------
#
#   EXPR := 'pt' | 'simplex(' INT {',' INT} ')' | 'bd(' EXPR ')'
#         | 'join(' EXPR ',' EXPR ')' | 'subst(' EXPR ';' EXPR {',' EXPR} ')'
#
# Whitespace-insensitive, LL(1); vertices are relabelled left to right, so
# simplex arguments only fix the vertex count, and `pt` is `simplex(1)`.  An
# expression is parsed once into a tree of tuples, ('simplex', k), ('bd', e),
# ('join', e, f) or ('subst', slot, part, ...), counted before it is built.

_BUILDERS = {"simplex": simplex, "bd": boundary, "join": join,
             "subst": lambda slot, *parts: substitute(slot, parts).complex}


def _parse_expr(sc):
    name = sc.token(str.isalpha, "a name")
    if name == "pt":
        return ("simplex", 1)
    if name not in _BUILDERS:
        raise ParseError(f"unknown builder {name!r}", sc.pos)
    sc.expect("(")
    if name == "simplex":
        labels = sc.items(sc.integer)
        if len(set(labels)) != len(labels):
            raise ParseError("repeated vertex in simplex(...)", sc.pos)
        node = ("simplex", len(labels))
    elif name == "subst":
        slot = _parse_expr(sc)
        sc.expect(";")
        node = ("subst", slot, *sc.items(lambda: _parse_expr(sc)))
    else:
        node = (name, _parse_expr(sc))
        if name == "join":
            sc.expect(",")
            node += (_parse_expr(sc),)
    sc.expect(")")
    return node


def _vertex_count(node):
    name, *args = node
    if name == "simplex":
        return args[0]
    if name == "subst":
        args = args[1:]  # the slot only fixes the number of parts
    return sum(map(_vertex_count, args))


def _build(node):
    if isinstance(node, int):  # the vertex count of a simplex
        return node
    name, *args = node
    return _BUILDERS[name](*map(_build, args))


def parse_complex(text, max_vertices=None):
    """Parse a builder expression into a SimplicialComplex, refusing one of
    more than `max_vertices` vertices before building anything."""
    node = read_text(text, _parse_expr)
    if max_vertices is not None:
        n = _vertex_count(node)
        if n > max_vertices:
            raise SizeLimitError(
                f"expression builds {n} vertices, above the bound {max_vertices}")
    return _build(node)
