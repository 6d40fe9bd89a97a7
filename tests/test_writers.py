"""The per-call text layer against its references: the chain writers and
the trace writer (one walk per term, integer sort keys) against the
label-tuple writers of `tests/oracles.py`, the report writer against
`json.dumps(indent=2)`, a JSON complex file read as bytes, and the bracket
reader against the Scanner reader it replaced, errors and columns
included."""

import json
import random
import re
import tracemalloc
from collections import OrderedDict, UserString
from enum import IntEnum

import pytest

from momangle import cli
from momangle.complexes import SimplicialComplex
from momangle.moment_angle import CellChain
from momangle.taylor import MonomialIdeal, TaylorChain
from momangle.whitehead import parse_whitehead
from momangle.zigzag import ZigzagStep, ZigzagTrace
from oracles import (labelled_step, labelled_words, reference_cell_text,
                     reference_parse_whitehead, reference_taylor_text, reference_trace_list)

COEFFS = [-7, -2, -1, -1, 1, 1, 1, 2, 3, 12]


def random_cell_chain(rng, m):
    """A chain of one degree on the labels 1..m: cells of mixed disc and
    circle counts (2 discs + 1 circle beside 1 disc + 3 circles), so keys
    of different lengths meet."""
    degree = rng.randint(0, min(m, 9))
    terms = {}
    for _ in range(rng.randint(0, 12)):
        discs = rng.randint(0, degree // 2)
        vs = rng.sample(range(m), degree - discs)
        I = sum(1 << v for v in vs[:discs])
        J = sum(1 << v for v in vs[discs:])
        terms[(J, I)] = rng.choice(COEFFS)
    return CellChain(terms)


def test_cell_text_matches_the_label_tuple_writer():
    """800 seeded chains on labels up to 64 and beyond (the writer's digit
    width follows the top label), the empty chain and the unit among them:
    the one-walk writer gives the reference's text byte for byte."""
    rng = random.Random(58)
    seen = {"empty": 0, "unit": 0, "coefficient": 0, "wide": 0}
    for k in range(800):
        m = rng.choice([3, 9, 12, 20, 64, 64, 130])
        c = random_cell_chain(rng, m)
        assert c.to_text() == reference_cell_text(c), c.terms
        seen["empty"] += not c.terms
        seen["unit"] += (0, 0) in c.terms
        seen["coefficient"] += "*" in c.to_text().replace("*S", "").replace("*D", "")
        seen["wide"] += c.support().bit_length() > 64
    assert CellChain({}).to_text() == "0" and CellChain.unit().to_text() == "1"
    assert min(seen.values()) > 10, seen


def ghost_complex(m, ghost):
    """The m points less the ghost vertex `ghost`: its missing faces are the
    ghost and every edge of the others, C(m - 1, 2) + 1 generators."""
    return SimplicialComplex(m, [(v,) for v in range(1, m + 1) if v != ghost])


def test_taylor_text_over_many_generators_matches_the_reference():
    """Words of s factors over generator tables of 11 to 1954 generators,
    so the writer's digit width passes 8 bits and the names include dotted
    words and the lone `10.`: the text is the labelled reference's."""
    rng = random.Random(59)
    tables = [ghost_complex(m, 10) for m in (5 + 5, 24, 40, 64)]
    assert [len(K.missing_faces()) for K in tables] == [37, 254, 742, 1954]
    dotted = lone = 0
    for k in range(240):
        K = tables[k % 4]
        gens = K.generators()
        s = rng.randint(0, 5)
        terms = {sum(1 << q for q in rng.sample(range(len(gens.masks)), s)): rng.choice(COEFFS)
                 for _ in range(rng.randint(0, 9))}
        chain = TaylorChain(gens, terms)
        text = chain.to_text()
        assert text == reference_taylor_text(labelled_words(chain)), terms
        assert TaylorChain.from_text(K, text) == chain
        dotted += "." in text
        lone += "w10." in text
    assert dotted > 100 and lone > 5


def random_step(rng, K, gens):
    """A staircase step of random terms on one slice S of K: each term a word
    W of generators inside S and a circle set J off its union."""
    S = sum(1 << v for v in rng.sample(range(K.m), rng.randint(0, min(K.m, 10))))
    inside = [q for q, mask in enumerate(gens.masks) if not mask & ~S]
    terms = {}
    for _ in range(rng.randint(0, 8)):
        W = sum(1 << q for q in rng.sample(inside, rng.randint(0, min(3, len(inside)))))
        rest = S & ~gens.union(W)
        J = sum(bit for bit in (1 << v for v in range(K.m)) if rest & bit and rng.random() < 0.5)
        terms[(J, W)] = rng.choice(COEFFS)
    return ZigzagStep(rng.choice(["solve-vertical", "apply-horizontal"]), S, terms, gens)


def test_trace_text_matches_the_labelled_bicomplex_writer():
    """Traces of seeded steps on complexes of 6 to 64 vertices, ghost and
    two-digit labels among them: `to_list` writes each step as the
    reference writes its labelled triples (I, J, W faces)."""
    rng = random.Random(60)
    complexes = [ghost_complex(6, 2), ghost_complex(14, 10), ghost_complex(64, 10),
                 SimplicialComplex.from_facets(12, [(1, 2, 3), (3, 4, 11), (5, 12), (6, 7, 8)])]
    terms = 0
    for k in range(300):
        K = complexes[k % 4]
        gens = K.generators()
        steps = tuple(random_step(rng, K, gens) for _ in range(rng.randint(0, 4)))
        want = reference_trace_list([labelled_step(s) for s in steps])
        assert ZigzagTrace(steps).to_list() == want
        assert [s.to_text() for s in steps] == [e["element"] for e in want]
        terms += sum(len(s.terms) for s in steps)
    assert terms > 1500


def test_trace_terms_with_one_cell_sort_by_faces_not_by_generators():
    """Two words of one union whose generator-index order and face-label
    order disagree: W1 = 26, 34, 156 comes first by index, W2 = 125, 136,
    245 first by labels, and the trace writes W2's term first."""
    K = MonomialIdeal.squarefree(7, [(3, 4), (2, 6), (1, 5, 6), (1, 2, 5), (1, 3, 6),
                                     (2, 4, 5)]).complex()
    gens = K.generators()
    W1, W2 = gens.word([(2, 6), (3, 4), (1, 5, 6)]), gens.word([(1, 2, 5), (1, 3, 6), (2, 4, 5)])
    assert W1 & -W1 < W2 & -W2
    step = ZigzagStep("apply-horizontal", 0b1111111, {(1 << 6, W1): 1, (1 << 6, W2): 2,
                                                        (0, W1): -1}, gens)
    text = "2*S7*w125*w136*w245 + S7*w26*w34*w156 - D7*w26*w34*w156"
    assert ZigzagTrace((step,)).to_list() == reference_trace_list([labelled_step(step)])
    assert step.to_text() == text


def test_a_far_label_costs_the_cell_writer_no_table(capsys):
    """The letters of a label past K's 64 vertices are written as they are
    read, not from a table of every label below it."""
    tracemalloc.start()
    try:
        assert cli.main(["hurewicz", "--w", "[[1,2],3000000]", "--max-vertices", "4000000"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert json.loads(capsys.readouterr().out)["chain"] == "D1*S2*S3000000 + S1*D2*S3000000"
    assert peak < 8 << 20, peak


class Text(str):
    pass


class Count(int):
    pass


class Colour(IntEnum):
    RED = 1


def test_report_writer_takes_subclasses_as_json_does():
    """Subclasses of str, int, float, dict, list and tuple, at the top and
    nested, and non-str keys beside them, are written as `json.dumps`
    writes them."""
    values = [Text("aé"), Count(7), Colour.RED, {"k": Text("v"), Count(3): [Count(4)]},
              OrderedDict([("z", 1), ("a", [True, None, 1.5])]), UserString("s").data,
              {"nested": OrderedDict(x=(Text("t"), Colour.RED, float("nan")))},
              [[], {}, (), [OrderedDict()]], {1.5: "f", False: 0, None: [-0.0]}]
    for value in values:
        assert cli.report_json(value) == json.dumps(value, indent=2), value


def test_crlf_json_file_gives_the_same_complex_and_report(tmp_path, capsys):
    """A JSON complex file with CRLF line ends, read as bytes and decoded
    once, is the same K as its LF twin and gives the same report."""
    data = {"m": 6, "facets": [[1, 2, 3], [3, 4], [4, 5, 6], [1, 6]]}
    text = json.dumps(data, indent=1)
    lf, crlf = tmp_path / "lf.json", tmp_path / "crlf.json"
    lf.write_bytes(text.encode())
    crlf.write_bytes(text.replace("\n", "\r\n").encode())
    assert b"\r\n" in crlf.read_bytes()
    assert cli.load_complex(str(crlf), 20) == cli.load_complex(str(lf), 20)
    reports = []
    for path in (lf, crlf):
        assert cli.main(["homology", "--complex", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        del report["inputs"], report["elapsed_s"]
        reports.append(report)
    assert reports[0] == reports[1]


ALPHABET = "[[[]]],,,, 0123456789" + "\t ٣-x+."


def malformed(rng):
    """A bracket text of up to 6 nesting levels, or none, with a few
    characters inserted, dropped or replaced."""
    def expr(depth, labels):
        if depth == 0 or rng.random() < 0.4:
            return str(labels.pop())
        kids = [expr(depth - 1, labels) for _ in range(rng.randint(2, 3))]
        return "[" + ",".join(kids) + "]"
    text = list(expr(rng.randint(0, 6), rng.sample(range(0, 400), 400)))
    for _ in range(rng.randint(0, 3)):
        at = rng.randint(0, len(text))
        kind = rng.random()
        if kind < 0.4:
            text.insert(at, rng.choice(ALPHABET))
        elif text and kind < 0.7:
            del text[min(at, len(text) - 1)]
        elif text:
            text[min(at, len(text) - 1)] = rng.choice(ALPHABET)
    return "".join(text)


def outcome(read, text):
    try:
        return "ok", read(text)
    except (ValueError, RecursionError) as exc:
        return type(exc).__name__, str(exc)


def test_bracket_reader_raises_what_the_scanner_reader_raised(capsys):
    """4000 seeded texts, most of them malformed: the reader returns the
    reference's expression or raises its error, type, message and column
    alike; on every text the reference refuses, `delta-w` exits 1 with an
    `error:` line and no traceback."""
    rng = random.Random(61)
    refused, kinds = 0, set()
    for _ in range(4000):
        text = malformed(rng)
        want = outcome(reference_parse_whitehead, text)
        assert outcome(parse_whitehead.__wrapped__, text) == want, text
        if want[0] != "ok":
            refused += 1
            kinds.add(re.sub(r"\d+", "N", want[1].split(" (line")[0]))
            assert cli.main(["delta-w", "--w", text]) == 1, text
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err, text
    assert refused > 1800 and len(kinds) == 6, kinds


@pytest.mark.parametrize("text, message", [
    ("[1,2", "expected ']' (line 1, column 5)"),
    ("  [1 , 2 ] ]", "trailing input (line 1, column 12)"),
    ("[1,,2]", "expected an integer (line 1, column 4)"),
    ("[[1],2]", "a bracket needs at least two arguments"),
    ("[1,[2,1]]", "leaf 1 appears twice"),
    ("[0,1]", "leaf labels must be positive"),
    ("[1 2]", "expected ']' (line 1, column 4)"),
])
def test_bracket_reader_errors(text, message):
    with pytest.raises(ValueError) as exc:
        parse_whitehead.__wrapped__(text)
    assert str(exc.value) == message
    with pytest.raises(ValueError) as ref:
        reference_parse_whitehead(text)
    assert str(ref.value) == message
