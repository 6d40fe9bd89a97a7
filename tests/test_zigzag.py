import json
import random
from itertools import combinations
from math import comb

import pytest

from momangle import exactalg, moment_angle, parse_complex, taylor, zigzag
from momangle.complexes import Generators, SimplicialComplex, face_mask, mask_face, simplex_boundary
from momangle.exactalg import insertion_sign, smith_normal_form
from momangle.moment_angle import CellChain, zk_bounds
from momangle.taylor import (TaylorChain, index_boundary, nested_taylor_cycle, taylor_boundary,
                             taylor_face_complex)
from momangle.whitehead import delta_w, hurewicz_chain, parse_whitehead
from momangle.zigzag import (ZigzagError, _homotopy, _horizontal, _staircase, _vertical,
                             _vertical_preimage, classes_equal, classes_equal_up_to_sign,
                             koszul_to_taylor)
from oracles import (BicomplexChain, cell_chain, random_complex, reference_full_slice_solve,
                     reference_horizontal_diff, reference_koszul_matrix,
                     reference_koszul_to_taylor, reference_nested_taylor_cycle,
                     reference_per_word_solve_vertical, reference_solve_vertical,
                     reference_trace_list, taylor_chain, vertical_diff, relabelled, vertex_to_leaf)
from test_golden import PAIRS as GOLDEN_PAIRS
from test_golden import SUB5 as GOLDEN_SUB5
from test_golden import load_golden
from test_golden import run as run_golden
from test_taylor import _random_nested_case


def B(terms):
    return BicomplexChain(terms)


def masked(K, e):
    """A labelled element as the staircase's slices {S: {(J, W): coeff}}."""
    gens = K.generators()
    position = {F: q for q, F in enumerate(gens.faces)}
    out = {}
    for (I, J, W), c in e.terms.items():
        word = sum(1 << position[F] for F in W)
        S = face_mask(I) | face_mask(J) | gens.union(word)
        out.setdefault(S, {})[(face_mask(J), word)] = c
    return out


def labelled(K, S, terms):
    """The slice S's terms {(J, W): coeff} as a BicomplexChain."""
    gens = K.generators()
    return B({(mask_face(S & ~J & ~gens.union(W)), mask_face(J),
               tuple(F for q, F in enumerate(gens.faces) if W >> q & 1)): c
              for (J, W), c in terms.items()})


def solve_vertical(K, S, eta):
    """The staircase's vertical solve (`_vertical_preimage`) on labels: the
    preimage of eta, whose terms are basis triples of the multidegree slice
    S (a vertex tuple)."""
    gens = K.generators()
    smask = face_mask(S)
    return labelled(K, smask, _vertical_preimage(smask, masked(K, eta)[smask], gens))


def _random_ideal_complex(rng, top):
    """A seeded complex on 2..top vertices with at least one missing face."""
    while True:
        K = random_complex(rng.randint(2, top), rng)
        if K.missing_faces():
            return K


def _random_slice(rng, K, count=4):
    """(S, terms): a random set S of at least half of K's vertices and up
    to `count` basis terms of its slice, each a word W of up to two
    generators inside S and a circle set J among the other letters of S."""
    gens = K.generators()
    S = face_mask(rng.sample(range(1, K.m + 1), rng.randint((K.m + 1) // 2, K.m)))
    inside = [q for q, mask in enumerate(gens.masks) if not mask & ~S]
    terms = {}
    for _ in range(count):
        W = sum(1 << q for q in rng.sample(inside, rng.randint(0, min(2, len(inside)))))
        free = mask_face(S & ~gens.union(W))
        J = face_mask(rng.sample(free, rng.randint(0, len(free) // 2)))
        terms[(J, W)] = rng.choice([-2, -1, 1, 3])
    return S, terms


def test_vertical_diff_single_disc():
    assert _vertical(0b1, {(0, 0): 1}, Generators(())) == {(0b1, 0): 1}


def test_vertical_diff_squares_to_zero():
    rng = random.Random(2)
    nonzero = 0
    for _ in range(60):
        K = _random_ideal_complex(rng, 6)
        gens = K.generators()
        S, terms = _random_slice(rng, K)
        image = _vertical(S, terms, gens)
        assert not _vertical(S, image, gens)
        nonzero += bool(image)
    assert nonzero > 50


def test_vertical_restricts_to_cell_boundary(sub5):
    """On a word-free slice the vertical differential is the cellular
    boundary, sign included, on seeded cells of 1..5."""
    rng = random.Random(5)
    for _ in range(100):
        verts = rng.sample(range(1, 6), rng.randint(1, 5))
        cut = rng.randint(0, len(verts))
        chain = cell_chain({(tuple(sorted(verts[cut:])), tuple(sorted(verts[:cut]))): 2})
        (S, terms), = masked(sub5, BicomplexChain.from_cell_chain(chain)).items()
        assert labelled(sub5, S, _vertical(S, terms, Generators(()))) == \
            BicomplexChain.from_cell_chain(chain.boundary())
    z = hurewicz_chain(parse_whitehead("[[1,2,3],4,5]"))
    (S, terms), = masked(sub5, BicomplexChain.from_cell_chain(z)).items()
    assert not _vertical(S, terms, Generators(())) and not z.boundary()


def test_horizontal_diff_absorbs_missing_face(sub5):
    (S, terms), = masked(sub5, B({((1, 2, 3), (), ()): 1})).items()
    assert labelled(sub5, S, _horizontal(S, terms, sub5.generators())) == \
        B({((), (), ((1, 2, 3),)): 1})


def test_horizontal_diff_generator_sign(sub5):
    # absorbing (2,4,5) after (1,4,5) passes one smaller generator
    (S, terms), = masked(sub5, B({((2,), (), ((1, 4, 5),)): 1})).items()
    assert labelled(sub5, S, _horizontal(S, terms, sub5.generators())) == \
        B({((), (), ((1, 4, 5), (2, 4, 5))): -1})


def test_horizontal_diff_matches_the_sorting_reference():
    """`_horizontal` on index bitmasks equals the front-insert-and-sort
    reference on seeded slice triples."""
    rng = random.Random(23)
    checked = absorbed = 0
    while checked < 300:
        K = _random_ideal_complex(rng, 6)
        gens = K.generators()
        S, terms = _random_slice(rng, K, count=rng.randint(1, 3))
        image = _horizontal(S, terms, gens)
        assert labelled(K, S, image) == reference_horizontal_diff(K, labelled(K, S, terms))
        absorbed += bool(image)
        checked += 1
    assert absorbed > 100


@pytest.mark.parametrize("n", range(11))
def test_koszul_homotopy_solves_as_the_smith_form(n):
    """For every (n, j) with n <= 10, the staircase's preimage, the
    homotopy with the top bit, equals `smith_normal_form(M).solve(b)` on
    the labelled Koszul matrix M of the simplex on 1..n, bit for bit, on
    seeded image vectors b = M x; on seeded vectors that are no image it
    refuses with the staircase's message where the Smith form has no
    solution."""
    rng = random.Random(100 + n)
    S, gens = (1 << n) - 1, Generators(())
    images = refusals = 0
    for j in range(n + 1):
        targets, sources, matrix = reference_koszul_matrix(n, j)
        snf = smith_normal_form(matrix)
        for draw in range(12):
            if draw % 2 and sources:
                x = {col: rng.randint(-3, 3) for col in rng.sample(range(len(sources)),
                                                                 min(3, len(sources)))}
                b = matrix.apply(x)
            else:
                b = {t: rng.choice([-2, -1, 1, 2]) for t in rng.sample(
                    range(len(targets)), rng.randint(1, min(3, len(targets))))}
            if not b:
                continue
            want = snf.solve(b)
            eta = {(face_mask(targets[t]), 0): c for t, c in b.items()}
            if want is None:
                with pytest.raises(ZigzagError, match="no integer vertical preimage"):
                    _vertical_preimage(S, eta, gens)
                refusals += 1
            else:
                assert _vertical_preimage(S, eta, gens) == \
                    {(face_mask(sources[col]), 0): c for col, c in want.items() if c}
                images += 1
    assert images >= 2 * n and refusals


def test_homotopy_contracts_the_vertical_differential():
    """d h + h d = id on seeded slice chains of several words and circle
    degrees, d the vertical differential and h the homotopy, except on a
    word W with union(W) = S: its block is Z in circle degree 0, which h
    and d both send to 0."""
    rng = random.Random(44)
    moved = 0
    for _ in range(200):
        K = _random_ideal_complex(rng, 7)
        gens = K.generators()
        S, terms = _random_slice(rng, K, count=rng.randint(1, 6))
        total = _vertical(S, _homotopy(S, terms, gens), gens)
        for key, c in _homotopy(S, _vertical(S, terms, gens), gens).items():
            total[key] = total.get(key, 0) + c
        assert {key: c for key, c in total.items() if c} == \
            {(J, W): c for (J, W), c in terms.items() if gens.union(W) != S}
        moved += bool(_homotopy(S, terms, gens))
    assert moved > 60


def test_differentials_commute():
    rng = random.Random(7)
    nonzero = 0
    for _ in range(150):
        K = _random_ideal_complex(rng, 5)
        gens = K.generators()
        S, terms = _random_slice(rng, K, count=3)
        hv = _horizontal(S, _vertical(S, terms, gens), gens)
        assert hv == _vertical(S, _horizontal(S, terms, gens), gens)
        nonzero += bool(hv)
    assert nonzero > 30


def test_zigzag_simplex_boundaries():
    for m in (2, 3, 4):
        K = simplex_boundary(m)
        w = parse_whitehead("[" + ",".join(map(str, range(1, m + 1))) + "]")
        cyc, trace = koszul_to_taylor(K, hurewicz_chain(w))
        top = taylor_chain(K, {(tuple(range(1, m + 1)),): 1})
        assert cyc == top or cyc == -top
        kinds = [s.kind for s in trace.steps]
        assert kinds == ["solve-vertical", "apply-horizontal"]


def test_zigzag_table_row_five(sub5):
    w = parse_whitehead("[[1,4,5],2]")
    cyc, _ = koszul_to_taylor(sub5, hurewicz_chain(w))
    printed = TaylorChain.from_text(sub5, "w245^w145")
    assert cyc == printed or cyc == -printed


def test_zigzag_trace_satisfies_staircase(sub5):
    w = parse_whitehead("[[1,2,3],4,5]")
    z = hurewicz_chain(w)
    cyc, trace = koszul_to_taylor(sub5, z)
    gens = sub5.generators()
    (S, previous), = masked(sub5, BicomplexChain.from_cell_chain(z)).items()
    steps = list(trace.steps)
    while steps:
        solve = steps.pop(0)
        push = steps.pop(0)
        assert solve.kind == "solve-vertical" and solve.S == S
        assert _vertical(S, solve.terms, gens) == previous
        assert push.kind == "apply-horizontal" and push.S == S
        assert _horizontal(S, solve.terms, gens) == push.terms
        previous = push.terms
    assert labelled(sub5, S, previous).taylor_part(sub5) == cyc


def test_zigzag_circle_degree_decreases(sub5):
    w = parse_whitehead("[[[1,4,5],2],3]")
    z = hurewicz_chain(w)
    _, trace = koszul_to_taylor(sub5, z)
    degrees = [sorted({J.bit_count() for J, _ in s.terms}) for s in trace.steps
               if s.kind == "apply-horizontal"]
    flat = [d for ds in degrees for d in ds]
    assert flat == sorted(flat, reverse=True)
    assert len(flat) == len(set(flat))


def test_zigzag_rejects_non_cycles(sub5):
    with pytest.raises(ZigzagError):
        koszul_to_taylor(sub5, CellChain.from_text("D1*S2"))
    with pytest.raises(ZigzagError):
        # support outside Z_K: (1,4,5) is a missing face
        koszul_to_taylor(sub5, CellChain.from_text("D1*D4*D5"))


def test_circle_letters_beyond_the_vertices_are_refused(sub5):
    """A circle letter above K.m is no cell of Z_K: the staircase and the
    boundary test both refuse it as outside Z_K."""
    for text in ("S9", "S1*S9"):
        chain = CellChain.from_text(text)
        assert not chain.supported_in(sub5)
        with pytest.raises(ZigzagError, match="outside Z_K"):
            koszul_to_taylor(sub5, chain)
        with pytest.raises(ValueError, match="outside Z_K"):
            zk_bounds(sub5, chain)


def test_zigzag_of_bounding_cycle_is_zero(sub5):
    # a pure-circle word is a cycle; its class vanishes and so must the output
    cyc, _ = koszul_to_taylor(sub5, CellChain.from_text("S1*S2*S3"))
    assert not cyc


def test_trace_json_roundtrip(sub5):
    w = parse_whitehead("[[1,4,5],2]")
    _, trace = koszul_to_taylor(sub5, hurewicz_chain(w))
    data = json.loads(json.dumps(trace.to_list()))
    assert [d["kind"] for d in data] == ["solve-vertical", "apply-horizontal"] * 2
    assert all(isinstance(d["element"], str) for d in data)


def test_classes_equal_basics(sub5):
    t = TaylorChain.from_text(sub5, "w245^w145")
    assert classes_equal(sub5, t, t)
    other = TaylorChain.from_text(sub5, "w345^w145")
    assert not classes_equal(sub5, t, other)
    with pytest.raises(ValueError):
        classes_equal(sub5, t, TaylorChain.from_text(sub5, "w123^w145"))


def test_classes_equal_up_to_boundary(sub5):
    # boundaries first appear at three factors: shift a closed-form cycle by
    # the boundary of a two-factor word
    t = nested_taylor_cycle(parse_whitehead("[[[1,4,5],2],3]"), sub5)
    bdry = taylor_boundary(sub5, TaylorChain.from_text(sub5, "w123^w145"))
    assert bdry
    assert classes_equal(sub5, t, t + bdry)
    double = t + t
    assert not classes_equal(sub5, t, double)


def test_zigzag_agrees_with_closed_form(sub5):
    for text in ["[[1,4,5],2]", "[[1,4,5],3]", "[[2,4,5],3]",
                 "[[[1,4,5],2],3]", "[[1,2,3],4,5]"]:
        w = parse_whitehead(text)
        cyc, _ = koszul_to_taylor(sub5, hurewicz_chain(w))
        assert classes_equal_up_to_sign(sub5, cyc, nested_taylor_cycle(w, sub5))


def test_zigzag_random_nested_on_canonical_complex():
    rng = random.Random(101)
    for _ in range(6):
        # nested product with 2 or 3 levels on <= 8 leaves
        leaves = list(range(1, rng.randint(5, 8)))
        rng.shuffle(leaves)
        p1 = rng.randint(2, max(2, len(leaves) - 2))
        inner, rest = leaves[:p1], leaves[p1:]
        text = "[" + ",".join(map(str, inner)) + "]"
        while rest:
            take = rest[:rng.randint(1, len(rest))]
            rest = rest[len(take):]
            text = "[" + ",".join([text] + list(map(str, take))) + "]"
        w = parse_whitehead(text)
        dw = delta_w(w)
        K = relabelled(dw.complex, vertex_to_leaf(dw), m=max(w.leaves()))
        cyc, _ = koszul_to_taylor(K, hurewicz_chain(w, K.m))
        assert classes_equal_up_to_sign(K, cyc, nested_taylor_cycle(w, K)), text


# -- the staircase on masks against the labelled references ----------------------

# the bracket shapes of the benchmark's realise jobs, leaves numbered 1..L
REALISE_SHAPES = [
    (1, 2, 3, 4), (1, 2, 3, 4, 5), (1, 2, 3, 4, 5, 6),
    ((1, 2), 3, 4), ((1, 2, 3), 4, 5), ((1, 2), (3, 4), 5),
    ((1, 2, 3), (4, 5), 6), ((1, 2), (3, 4), 5, 6),
    (((1, 2), 3), 4, 5), ((((1, 2), 3), 4), 5), (((1, 2, 3), 4), 5, 6),
    (((1, 2), 3), (4, 5), 6), (((1, 2), 3), (4, 5, 6), 7),
]


def _shape_text(shape, label):
    if isinstance(shape, int):
        return str(label[shape])
    return "[" + ",".join(_shape_text(c, label) for c in shape) + "]"


def _shape_leaves(shape):
    return 1 if isinstance(shape, int) else sum(map(_shape_leaves, shape))


def _ambient_product(rng):
    """(K, w): a realise shape on random vertices of 1..m, and bd_Delta(w)
    with up to three random faces through the extra vertices."""
    shape = rng.choice(REALISE_SHAPES)
    L = _shape_leaves(shape)
    m = L + rng.randint(0, 2)
    placed = rng.sample(range(1, m + 1), L)
    w = parse_whitehead(_shape_text(shape, dict(zip(range(1, L + 1), placed))))
    dw = delta_w(w)
    facets = list(relabelled(dw.complex, vertex_to_leaf(dw), m=m).facets)
    outside = [v for v in range(1, m + 1) if v not in placed]
    for _ in range(rng.randint(0, 3) if outside else 0):
        facets.append(rng.sample(placed, rng.randint(0, L - 1))
                      + rng.sample(outside, rng.randint(1, len(outside))))
    return SimplicialComplex.from_facets(m, facets), w


def _outcome(K, z):
    """(cycle, trace JSON) of the staircase on masks, or its ZigzagError
    message."""
    try:
        cycle, trace = koszul_to_taylor(K, z)
    except ZigzagError as exc:
        return str(exc)
    return cycle, json.dumps(trace.to_list())


def _reference_outcome(K, z):
    """(cycle, trace JSON) of the labelled staircase, or its ZigzagError
    message."""
    try:
        cycle, steps = reference_koszul_to_taylor(K, z)
    except ZigzagError as exc:
        return str(exc)
    return cycle, json.dumps(reference_trace_list(steps))


def _restarts(K, trace, steps):
    """(cycle, trace JSON) of both staircases restarted from each of their
    apply-horizontal elements: vertical cycles whose words are not empty."""
    gens = K.generators()
    ours = [s for s in trace.steps if s.kind == "apply-horizontal"]
    theirs = [e for kind, e in steps if kind == "apply-horizontal"]
    assert len(ours) == len(theirs)
    for step, e in zip(ours, theirs):
        assert not _vertical(step.S, step.terms, gens)
        cycle, restart = _staircase(gens, {step.S: step.terms})
        yield (cycle, json.dumps(restart.to_list())), _reference_outcome(K, e)


def test_staircase_matches_labelled_reference():
    """The staircase on masks against the labelled one (one solve per word):
    cycle and trace JSON, on 200 seeded ambient products, on restarts from
    every apply-horizontal element of their traces, and on the golden pairs;
    on the ambient products the labelled staircase with full-slice solves
    must agree as well."""
    rng = random.Random(2024)
    chains = solves = words = 0
    while chains < 200:
        K, w = _ambient_product(rng)
        z = hurewicz_chain(w, K.m)
        cycle, trace = koszul_to_taylor(K, z)
        reference = reference_koszul_to_taylor(K, z)
        assert (cycle, json.dumps(trace.to_list())) == \
            (reference[0], json.dumps(reference_trace_list(reference[1]))), (K, w)
        assert reference_koszul_to_taylor(K, z, reference_full_slice_solve) == reference
        for ours, theirs in _restarts(K, trace, reference[1]):
            assert ours == theirs
            words += 1
        chains += 1
        solves += len(trace.steps) // 2
    assert solves > 2 * chains and words > 2 * chains
    for K_text, w_text in GOLDEN_PAIRS:
        K, w = parse_complex(K_text), parse_whitehead(w_text)
        z = hurewicz_chain(w, K.m)
        assert _outcome(K, z) == _reference_outcome(K, z)


@pytest.mark.parametrize("K_text, w_text, elements", [
    ("join(bd(simplex(1,2,3,4,5,6,7,8,9)), bd(simplex(1,2)))", "[10,11]",
     ["D10*D11", "w10.11"]),
    (None, "[[2,10],11]",
     ["-D2*S10*D11 - S2*D10*D11", "-S2*w10.11 - S10*w2.11",
      "-D2*w10.11 - D10*w2.11", "-w2.10*w2.11 - w2.10*w10.11"]),
])
def test_trace_writes_two_digit_labels_as_the_reference(K_text, w_text, elements):
    """Labels above 9 in the trace text: a word name is dotted (`w10.11`)
    and a cell letter is not (`D10`), also where a step mixes the two; the
    trace JSON equals the labelled reference's.  Without K_text, K is the
    canonical bd_Delta(w) on the leaves."""
    w = parse_whitehead(w_text)
    if K_text:
        K = parse_complex(K_text)
    else:
        dw = delta_w(w)
        K = relabelled(dw.complex, vertex_to_leaf(dw), m=max(w.leaves()))
    z = hurewicz_chain(w, K.m)
    outcome = _outcome(K, z)
    assert [step["element"] for step in json.loads(outcome[1])] == elements
    assert outcome == _reference_outcome(K, z)


def _insertion_with_parity(parity):
    """`exactalg.insert_bits` with the sign `parity(word, b)` for bit b
    entering word."""
    def insert(chain, bits, out=None):
        out = {} if out is None else out
        for word, c in chain.items():
            rest = bits & ~word
            while rest:
                b = rest & -rest
                rest ^= b
                out[word | b] = out.get(word | b, 0) + parity(word, b) * c
        return out
    return insert


def _patch_insertion(patch, parity):
    """Every binding of the one chain insertion in the package replaced."""
    for module in (exactalg, moment_angle, taylor, zigzag):
        patch.setattr(module, "insert_bits", _insertion_with_parity(parity))


def test_a_broken_shared_insertion_is_refused(sub5, monkeypatch):
    """The one chain insertion with its parity dropped (every bit enters
    with +1): the staircase's input check, the same insertion, refuses the
    cellular cycle, and the whole Taylor complex fails `ChainComplex`'s
    d^2 check.  With its parity flipped, d^2 = 0 still holds, but the
    vertical step is then -d against the homotopy's `insertion_sign`, so
    the staircase refuses at its vertical check, and a closed form of an
    odd number of levels changes sign, which the golden reports pin
    (`taylor-cycle` on [1,2,3])."""
    w = parse_whitehead("[[[1,4,5],2],3]")
    z = hurewicz_chain(w, sub5.m)
    koszul_to_taylor(sub5, z)
    argv = ["taylor-cycle", "--complex", GOLDEN_SUB5, "--w", "[1,2,3]"]
    assert run_golden(argv) == load_golden()[tuple(argv)]
    with monkeypatch.context() as patch:
        _patch_insertion(patch, lambda word, b: 1)
        with pytest.raises(ZigzagError, match="input chain is not a cycle"):
            koszul_to_taylor(sub5, z)
        with pytest.raises(ValueError, match=r"d\^2 != 0"):
            taylor_face_complex(sub5)
    with monkeypatch.context() as patch:
        _patch_insertion(patch, lambda word, b: -insertion_sign(word, b))
        with pytest.raises(ZigzagError, match="no integer vertical preimage"):
            koszul_to_taylor(sub5, z)
        assert taylor_face_complex(sub5).dim(-2) == 6
        assert nested_taylor_cycle(w, sub5) == \
            -TaylorChain.from_text(sub5, "(w123+w345)^w245^w145")
        assert run_golden(argv) != load_golden()[tuple(argv)]


def test_closed_forms_and_staircase_outputs_are_cycles():
    """`index_boundary` is 0 on every closed form and every staircase output,
    the check neither makes on its own words: the golden pairs, and 40
    seeded nested products on bd_Delta(w) with up to two random faces added
    (`test_taylor._random_nested_case`).  A closed form its factor rule
    refuses is no cycle (checked on the labelled reference), and the
    staircase refuses only a canonical cycle with cells outside Z_K."""
    rng = random.Random(30)
    cases = [(parse_complex(K_text), parse_whitehead(w_text)) for K_text, w_text in GOLDEN_PAIRS]
    cases += [_random_nested_case(rng) for _ in range(40)]
    forms = outputs = refused = 0
    for K, w in cases:
        gens = K.generators()
        try:
            form = nested_taylor_cycle(w, K)
        except ValueError as exc:
            if "is no cycle of K" in str(exc):
                assert taylor_boundary(K, reference_nested_taylor_cycle(w, K))
                refused += 1
        else:
            assert form and not index_boundary(form.terms, gens), (K, w)
            forms += 1
        try:
            cycle, _ = koszul_to_taylor(K, hurewicz_chain(w, K.m))
        except ZigzagError as exc:
            assert "outside Z_K" in str(exc)
            continue
        assert not index_boundary(cycle.terms, gens), (K, w)
        outputs += bool(cycle)
    assert forms >= 25 and outputs >= 25 and refused


def test_closed_form_and_staircase_do_not_walk_their_output(sub5, monkeypatch):
    """Neither `nested_taylor_cycle` nor `koszul_to_taylor` calls
    `index_boundary`: each is a cycle by its own exact rule."""
    def spy(chain, gens):
        raise AssertionError("index_boundary called")
    for module in (taylor, zigzag):
        monkeypatch.setattr(module, "index_boundary", spy, raising=False)
    for text in ("[[1,2,3],4,5]", "[[[1,4,5],2],3]"):
        w = parse_whitehead(text)
        assert nested_taylor_cycle(w, sub5)
        assert koszul_to_taylor(sub5, hurewicz_chain(w, sub5.m))[0]


def test_staircase_keeps_a_slice_with_disc_letters(sub5):
    """A slice leaves the staircase only when every term has no circle
    letter and a word of union S: an element with no circle letter whose
    words leave disc letters (here the empty word on S = 1..5) is no Taylor
    cycle, and the loop takes it to the vertical solve, which refuses it
    because it is no vertical cycle."""
    gens = sub5.generators()
    for S, W in ((0b11111, 0), (0b11111, gens.word(((1, 2, 3),)))):
        with pytest.raises(ZigzagError, match="no integer vertical preimage"):
            _staircase(gens, {S: {(0, W): 1}})
    cycle, trace = _staircase(gens, {0: {(0, 0): 1}})
    assert cycle.terms == {0: 1} and not trace.steps


def _random_word_system(rng):
    """(K, S, eta): eta the vertical image of random elements on two to four
    words of missing faces inside S, at one circle degree, with |T_W| <= 9.
    The draw is kept only when the reference's whole slice (every word of
    the chosen lengths) has at most 400 triples in each degree."""
    while True:
        m = rng.randint(4, 9)
        K = random_complex(m, rng, max_facet_count=m)
        S = tuple(range(1, m + 1))
        words = [W for k in range(3) for W in combinations(K.missing_faces(), k)]
        if len(words) < 2:
            continue
        chosen = rng.sample(words, rng.randint(2, min(4, len(words))))
        free = {W: [v for v in S if v not in set().union(*W)] for W in words}
        j = rng.randint(1, min(6, max(len(free[W]) for W in chosen)))
        lengths = {len(W) for W in chosen}
        if any(sum(comb(len(T), k) for W, T in free.items() if len(W) in lengths) > 400
               for k in (j - 1, j)):
            continue
        phi = {}
        for W in chosen:
            pool = list(combinations(free[W], j - 1)) if j <= len(free[W]) else []
            for J in rng.sample(pool, min(3, len(pool))):
                phi[(tuple(v for v in free[W] if v not in J), J, W)] = rng.randint(-3, 3)
        eta = vertical_diff(BicomplexChain(phi))
        if len({W for (_, _, W) in eta.terms}) >= 2:
            return K, S, eta


def test_per_word_solve_matches_full_slice_on_block_diagonal_systems():
    rng = random.Random(77)
    for _ in range(120):
        K, S, eta = _random_word_system(rng)
        phi = solve_vertical(K, S, eta)
        assert phi == BicomplexChain(reference_solve_vertical(K, S, eta.terms))
        assert phi == reference_per_word_solve_vertical(K, S, eta)
        assert vertical_diff(phi) == eta


def test_reference_vertical_solve_refusals(sub5):
    """The labelled solve refuses what leaves its slice; the staircase on
    masks holds only slice terms, so of these only the circle-degree and
    preimage refusals are its own (`test_mask_vertical_solve_refusals`)."""
    def refuses(S, terms, message):
        with pytest.raises(ZigzagError, match=message):
            reference_per_word_solve_vertical(sub5, S, B(terms))

    slice_message = "leaves the multidegree slice"
    refuses((1, 2, 3), {((1,), (2, 3), ()): 1, ((1, 2), (3,), ()): 1},
            "mixes circle degrees")
    # I + J + union(W) must be S, with I and J in increasing order
    refuses((1, 2, 3), {((1,), (2,), ()): 1}, slice_message)
    refuses((1, 2, 3), {((1, 3), (2, 4), ()): 1}, slice_message)
    refuses((1, 2, 3), {((3, 1), (2,), ()): 1}, slice_message)
    refuses((1, 2, 3), {((1,), (3, 2), ()): 1}, slice_message)
    refuses((1, 2, 3), {((1,), (), ((1, 2, 3),)): 1}, slice_message)
    # W: distinct missing faces of K inside S, in generator order
    refuses((1, 2, 3), {((3,), (), ((1, 2),)): 1}, slice_message)
    refuses((1, 2, 3), {((2,), (3,), ((1, 4, 5),)): 1}, slice_message)
    refuses((1, 2, 3, 4, 5), {((3,), (), ((2, 4, 5), (1, 4, 5))): 1}, slice_message)
    refuses((1, 2), {((1,), (2,), ()): 1}, "no integer vertical preimage")
    refuses((1,), {((1,), (), ()): 1}, "no integer vertical preimage")


def test_mask_vertical_solve_refusals(sub5):
    gens = sub5.generators()
    with pytest.raises(ZigzagError, match="mixes circle degrees"):
        _vertical_preimage(0b111, {(0b110, 0): 1, (0b100, 0): 1}, gens)
    # d(D1 S2) = S1 S2 is not zero, so D1 S2 is no cycle and has no
    # preimage; nor has a disc letter at circle degree 0
    with pytest.raises(ZigzagError, match="no integer vertical preimage"):
        _vertical_preimage(0b11, {(0b10, 0): 1}, gens)
    with pytest.raises(ZigzagError, match="no integer vertical preimage"):
        _vertical_preimage(0b1, {(0, 0): 1}, gens)
    with pytest.raises(ZigzagError, match="not a cycle"):
        koszul_to_taylor(sub5, CellChain.from_text("D1*S2"))

