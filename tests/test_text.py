"""Text forms: the shared scanner, signed sums (their text and their shared
arithmetic) and generator words, and round trips of every printed object
through its reader."""

import pytest

from momangle.complexes import (ParseError, Scanner, SizeLimitError, parse_complex,
                                word_text, read_word)
from momangle.moment_angle import CellChain
from momangle.taylor import TaylorChain
from momangle.whitehead import bracket, leaf, parse_whitehead
from oracles import BicomplexChain, cell_chain


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
        TaylorChain.from_text("(w12+w34")
    with pytest.raises(ParseError, match="trailing input"):
        parse_complex("pt pt")


def test_signed_sums():
    assert CellChain.from_text("0") == CellChain.zero()
    assert CellChain.from_text("1") == CellChain.unit()
    assert CellChain.from_text("-3*1").to_text() == "-3*1"
    assert CellChain.from_text("+ D1*S2 - 2*S1*D2").to_text() == "D1*S2 - 2*S1*D2"
    assert TaylorChain.from_text("2*(w12 - w34)^w5 + w34^w5").to_text() == \
        "2*w12^w5 - w34^w5"
    assert TaylorChain.from_text("1") == TaylorChain({(): 1})
    with pytest.raises(ParseError):
        CellChain.from_text("D1*S2 D3")
    with pytest.raises(ValueError):
        CellChain.from_text("S1*S1")


def test_bicomplex_text_uses_the_shared_writer():
    e = BicomplexChain({((1,), (2,), ((3, 10),)): -2, ((), (), ((1, 2),)): 1})
    assert e.to_text() == "w12 - 2*D1*S2*w3.10"


CHAIN_TYPES = (CellChain, TaylorChain, BicomplexChain)


@pytest.mark.parametrize("cls, a, b", [
    (CellChain, (0b1, 0b10), (0b10, 0b1)),
    (TaylorChain, ((1, 2),), ((3, 4),)),
    (BicomplexChain, ((1,), (2,), ((3, 4),)), ((), (), ((1, 2),))),
])
def test_signed_sum_arithmetic(cls, a, b):
    """The arithmetic every chain type takes from `SignedSum`: the
    package's two and the reference staircase's `BicomplexChain`."""
    x, y = cls({a: 2, b: -1}), cls({b: 3})
    assert not x + (-x) and x + (-x) == cls.zero()
    assert (x + y) - y == x and x - y == cls({a: 2, b: -4})
    assert not x.scaled(0) and x.scaled(-3) == cls({a: -6, b: 3})
    same = cls({b: -1, a: 2})
    assert same == x and hash(same) == hash(x) and len({x, same, y}) == 2
    assert repr(x) == f"{cls.__name__}({x.to_text()})"
    # equal only within one type, even with the same (empty) terms
    assert all(cls.zero() != other.zero() for other in CHAIN_TYPES if other is not cls)


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
    s = draw(st.integers(0, 3))
    faces = st.lists(LABELS, min_size=1, max_size=3, unique=True).map(
        lambda f: tuple(sorted(f)))
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        terms[tuple(draw(st.lists(faces, min_size=s, max_size=s, unique=True)))] = \
            draw(COEFFS)
    return TaylorChain(terms)


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
    assert TaylorChain.from_text(c.to_text()) == c


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
