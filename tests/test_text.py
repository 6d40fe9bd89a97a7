"""Text forms: the shared scanner, signed sums (their text and their shared
arithmetic) and generator words, and round trips of every printed object
through its reader."""

import random
from functools import partial

import pytest

from momangle.complexes import (ParseError, Scanner, SizeLimitError, parse_complex,
                                word_text, read_word)
from momangle.moment_angle import CellChain
from momangle.taylor import MonomialIdeal, TaylorChain
from momangle.whitehead import bracket, leaf, parse_whitehead
from oracles import BicomplexChain, cell_chain, reference_taylor_text, taylor_chain

# a complex on 12 vertices with the given missing faces, of one to four
# vertices, labels above 9 among them: in generator order 5, 12, 1.10, 34,
# 9.12, 10.11, 239, 4.11.12, 678, 6.7.11.12
TEXT_K = MonomialIdeal.squarefree(12, [(1, 2), (3, 4), (5,), (9, 12), (10, 11), (1, 10),
                                       (2, 3, 9), (4, 11, 12), (6, 7, 8),
                                       (6, 7, 11, 12)]).complex()
TWELVE = "join(simplex(1,2,3,4,5,6,7,8),bd(bd(bd(simplex(1,2,3,4)))))"


def test_word_text_switches_to_dots_above_nine():
    assert word_text((1, 4, 5)) == "145"
    assert word_text((1, 10)) == "1.10"
    assert word_text((10,)) == "10."
    for labels in [(1, 4, 5), (1, 10), (10,), (3, 11, 12), (9,)]:
        assert read_word(Scanner(word_text(labels))) == labels


def test_parse_errors_carry_the_column():
    with pytest.raises(ParseError, match="column 6"):
        parse_whitehead("[1,2,")
    with pytest.raises(ParseError, match="column 4"):
        CellChain.from_text("D1*X2")
    with pytest.raises(ParseError, match="expected '\\)'"):
        TaylorChain.from_text(TEXT_K, "(w12+w34")
    with pytest.raises(ParseError, match="trailing input"):
        parse_complex("pt pt")


def test_signed_sums():
    assert CellChain.from_text("0") == CellChain({})
    assert CellChain.from_text("1") == CellChain.unit()
    assert CellChain.from_text("-3*1").to_text() == "-3*1"
    assert CellChain.from_text("+ D1*S2 - 2*S1*D2").to_text() == "D1*S2 - 2*S1*D2"
    assert TaylorChain.from_text(TEXT_K, "2*(w12 - w34)^w5 + w34^w5").to_text() == \
        "2*w12^w5 - w34^w5"
    assert TaylorChain.from_text(TEXT_K, "1") == TaylorChain(TEXT_K.generators(), {0: 1})
    with pytest.raises(ParseError):
        CellChain.from_text("D1*S2 D3")
    with pytest.raises(ValueError):
        CellChain.from_text("S1*S1")


def test_bicomplex_text_uses_the_shared_writer():
    e = BicomplexChain({((1,), (2,), ((3, 10),)): -2, ((), (), ((1, 2),)): 1})
    assert e.to_text() == "w12 - 2*D1*S2*w3.10"


CHAIN_TYPES = (CellChain, partial(TaylorChain, TEXT_K.generators()), BicomplexChain)


@pytest.mark.parametrize("make, a, b", [
    (CellChain, (0b1, 0b10), (0b10, 0b1)),
    # the generators 12 and 34 of TEXT_K
    (CHAIN_TYPES[1], 0b10, 0b1000),
    (BicomplexChain, ((1,), (2,), ((3, 4),)), ((), (), ((1, 2),))),
])
def test_signed_sum_arithmetic(make, a, b):
    """The arithmetic every chain type takes from `SignedSum`: the
    package's two and the reference staircase's `BicomplexChain`."""
    x, y = make({a: 2, b: -1}), make({b: 3})
    assert not x + (-x) and x + (-x) == make({})
    assert (x + y) - y == x and x - y == make({a: 2, b: -4})
    assert not x.scaled(0) and x.scaled(-3) == make({a: -6, b: 3})
    same = make({b: -1, a: 2})
    assert same == x and hash(same) == hash(x) and len({x, same, y}) == 2
    assert repr(x) == f"{type(x).__name__}({x.to_text()})"
    # equal only within one type, even with the same (empty) terms
    assert all(make({}) != other({}) for other in CHAIN_TYPES if other is not make)


def test_taylor_text_matches_the_labelled_reference(sub5):
    """On 500 seeded chains over three complexes (TEXT_K, the 12-vertex
    join whose generators 9.12 and 10.11 a string sort would swap, and
    sub5), with factors drawn in any order, the text written from index
    bitmasks is the labelled reference's, and reading it back gives the
    chain.  The draws include the empty word `1`, the zero chain and
    dotted names."""
    rng = random.Random(89)
    complexes = [TEXT_K, parse_complex(TWELVE), sub5]
    zero = unit = dotted = 0
    for k in range(500):
        K = complexes[k % 3]
        faces = K.missing_faces()
        s = rng.randint(0, min(4, len(faces)))
        terms = {tuple(rng.sample(faces, s)): rng.choice([-3, -2, -1, 0, 1, 1, 2])
                 for _ in range(rng.randint(0, 5))}
        c = taylor_chain(K, terms)
        text = c.to_text()
        assert text == reference_taylor_text(terms), (K, terms)
        assert TaylorChain.from_text(K, text) == c, text
        zero += not c
        unit += text in ("1", "-1") or text.endswith("*1")
        dotted += "." in text
    assert zero > 20 and unit > 20 and dotted > 150


hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings, assume = hypothesis.given, hypothesis.settings, hypothesis.assume

LABELS = st.integers(1, 12)
COEFFS = st.integers(-4, 4).filter(bool)


@st.composite
def cell_chains(draw):
    discs, circles = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        vs = draw(st.lists(LABELS, min_size=discs + circles,
                           max_size=discs + circles, unique=True))
        terms[(tuple(sorted(vs[discs:])), tuple(sorted(vs[:discs])))] = draw(COEFFS)
    return cell_chain(terms)


@st.composite
def taylor_chains(draw):
    """Chains over TEXT_K's ten generators, each word s distinct bits."""
    s = draw(st.integers(0, 3))
    bits = st.lists(st.integers(0, 9), min_size=s, max_size=s, unique=True)
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        terms[sum(1 << q for q in draw(bits))] = draw(COEFFS)
    return TaylorChain(TEXT_K.generators(), terms)


SHAPES = st.recursive(st.none(), lambda kids: st.lists(kids, min_size=2, max_size=3),
                      max_leaves=8)


@st.composite
def whitehead_exprs(draw):
    shape = draw(SHAPES)
    labels = iter(draw(st.permutations(range(1, 13))))

    def build(node):
        return leaf(next(labels)) if node is None else bracket([build(k) for k in node])
    return build(shape)


@st.composite
def builder_exprs(draw, depth=2):
    """(text, vertex count) of a builder expression."""
    kind = draw(st.sampled_from(["pt", "simplex"] + ["bd", "join", "subst"] * bool(depth)))
    if kind == "pt":
        return "pt", 1
    if kind == "simplex":
        labels = draw(st.lists(LABELS, min_size=1, max_size=4, unique=True))
        return f"simplex({','.join(map(str, labels))})", len(labels)
    if kind == "bd":
        text, n = draw(builder_exprs(depth - 1))
        return f"bd( {text} )", n
    if kind == "join":
        (a, m), (b, n) = draw(builder_exprs(depth - 1)), draw(builder_exprs(depth - 1))
        return f"join({a},{b})", m + n
    slot, k = draw(builder_exprs(depth - 1))
    parts = [draw(builder_exprs(depth - 1)) for _ in range(k)]
    return (f"subst({slot}; {', '.join(t for t, _ in parts)})",
            sum(n for _, n in parts))


@settings(max_examples=100, deadline=None)
@given(cell_chains())
def test_cell_chain_round_trip(c):
    assert CellChain.from_text(c.to_text()) == c


@settings(max_examples=100, deadline=None)
@given(taylor_chains())
def test_taylor_chain_round_trip(c):
    assert TaylorChain.from_text(TEXT_K, c.to_text()) == c


@settings(max_examples=100, deadline=None)
@given(whitehead_exprs())
def test_whitehead_round_trip(w):
    assert parse_whitehead(w.to_text()) == w


@settings(max_examples=60, deadline=None)
@given(builder_exprs())
def test_vertex_count_matches_the_built_complex(expr):
    text, n = expr
    assume(n <= 8)
    # the gate counts the vertices before anything is built
    assert parse_complex(text, max_vertices=n).m == n
    with pytest.raises(SizeLimitError):
        parse_complex(text, max_vertices=n - 1)
