import json
import random
import sys
import tracemalloc
from collections import Counter
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

from momangle import cli
from momangle.cli import main, read_argv, report_json
from momangle.complexes import SimplicialComplex, parse_complex
from momangle.moment_angle import lattice_supports
from momangle.taylor import TaylorChain, mask_unions
from momangle.whitehead import delta_w, parse_whitehead
from conftest import SUB5_EXPR
from oracles import (closed_form_family, labelled_words, random_complex,
                     reference_from_json_dict, relabelled, vertex_to_leaf)
from test_golden import CASES as GOLDEN_CASES
from test_golden import load_golden


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *args):
    code, out, err = run_cli(capsys, *args)
    assert code == 0, err
    return json.loads(out)


def test_homology_verb(capsys):
    data = run_json(capsys, "homology", "--complex", SUB5_EXPR)
    assert data["ranks"] == {"0": 1, "5": 4, "6": 3, "7": 1, "8": 1}
    assert data["generator_order"] == ["123", "145", "245", "345"]


def test_report_digest_drops_only_the_time_and_the_inputs(capsys, monkeypatch):
    """`digest` of tools/report_digest.py, the rule of the committed job-list
    digests and of the ladder's rows: a report that differs from another
    only in `elapsed_s` and `inputs` gets its digest, and one with any other
    digit changed, or another exit code, gets another."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "tools"))
    from report_digest import digest
    code, text, _ = run_cli(capsys, "homology", "--complex", "bd(simplex(1,2,3))")
    report = json.loads(text)
    moved = json.dumps(dict(report, elapsed_s=report["elapsed_s"] + 1, inputs={"complex": "K.json"}))
    want = digest([(code, text)])
    assert digest([(code, moved)]) == want != digest([(1, text)])
    skipped = [(text.index('"inputs"'), text.index('"engine"')),
               (text.index('"elapsed_s"'), text.index('"generator_order"'))]
    changed = [text[:i] + chr(ord(c) ^ 1) + text[i + 1:] for i, c in enumerate(text)
               if c.isdigit() and not any(a <= i < b for a, b in skipped)]
    assert len(changed) == 14
    assert all(digest([(code, other)]) != want for other in changed)


def test_mf_verb(capsys):
    data = run_json(capsys, "mf", "--complex", SUB5_EXPR)
    assert data["missing_faces"] == [[1, 2, 3], [1, 4, 5], [2, 4, 5], [3, 4, 5]]


def test_taylor_cycle_verb(capsys):
    data = run_json(capsys, "taylor-cycle", "--complex", SUB5_EXPR,
                    "--w", "[[1,2,3],4,5]")
    assert data["cycle"] == "w145^w123 + w245^w123 + w345^w123"
    assert data["degree"] == 8


def test_status_verb(capsys):
    data = run_json(capsys, "status", "--complex", SUB5_EXPR,
                    "--w", "[[1,2,3],4,5]")
    assert data["status"] == "defined-nontrivial"


def test_zigzag_verb(capsys):
    data = run_json(capsys, "zigzag", "--complex", SUB5_EXPR,
                    "--w", "[[1,4,5],2]")
    assert data["cycle"] in ("w245^w145", "-w245^w145")
    assert [s["kind"] for s in data["trace"]] == \
        ["solve-vertical", "apply-horizontal"] * 2


def test_taylor_verb(capsys):
    data = run_json(capsys, "taylor", "--complex", SUB5_EXPR)
    assert data["ranks_by_index"] == [1, 4, 6, 4, 1]
    assert data["homology"]["8"] == {"rank": 1, "torsion": []}


def test_hochster_verb(capsys):
    data = run_json(capsys, "hochster", "--complex", SUB5_EXPR,
                    "--subset", "1,2,3")
    assert data["by_subset"] == [
        {"subset": [1, 2, 3], "degree": 5, "group": {"rank": 1, "torsion": []}}]


@pytest.mark.parametrize("subset, reason", [
    ("1,9", "not within the vertices 1..3"),
    ("1,1", "repeats a vertex"),
    ("0,1", "not within the vertices 1..3"),
])
def test_hochster_subset_is_validated(capsys, subset, reason):
    code, out, err = run_cli(capsys, "hochster", "--complex", "bd(simplex(1,2,3))",
                             "--subset", subset)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and reason in err


def test_wedge_basis_verb(capsys):
    data = run_json(capsys, "wedge-basis", "--complex", "bd(simplex(1,2,3))")
    assert data["is_basis"] is True
    assert data["entries"][0]["product"] == "[1,2,3]"


def test_delta_w_and_hurewicz_verbs(capsys):
    data = run_json(capsys, "delta-w", "--w", "[[1,2,3],4,5]")
    assert data["dimension"] == 8
    assert data["complex"]["m"] == 5
    data = run_json(capsys, "hurewicz", "--w", "[1,2]")
    assert data["chain"] == "D1*S2 + S1*D2"


def test_verify_verb_ok(capsys):
    code, out, _ = run_cli(capsys, "verify", "--complex", SUB5_EXPR)
    assert code == 0
    assert json.loads(out)["failures"] == []


def test_verify_exit_code_on_disagreement(capsys, monkeypatch):
    from momangle import cli
    from momangle.exactalg import HomologyGroup
    monkeypatch.setattr(cli.ty, "taylor_homology_by_support",
                        lambda K: {(0, 99): HomologyGroup(1)})
    code, out, _ = run_cli(capsys, "verify", "--complex", SUB5_EXPR)
    assert code == 3
    assert "Taylor vs cellular" in json.loads(out)["verification_error"]


def test_verify_compares_routes_block_by_block(capsys, monkeypatch):
    # move one Taylor group to another support of the same degree: the degree
    # sums stay equal, the per-support tables do not
    from momangle import cli
    from momangle import moment_angle as ma
    from momangle.complexes import face_mask
    real = cli.ty.taylor_homology_by_support

    def moved(K):
        table = dict(real(K))
        table[(face_mask((1, 2, 4)), 5)] = table.pop((face_mask((1, 2, 3)), 5))
        assert ma.degree_sums(table) == ma.degree_sums(real(K))
        return table
    monkeypatch.setattr(cli.ty, "taylor_homology_by_support", moved)
    code, out, _ = run_cli(capsys, "verify", "--complex", SUB5_EXPR)
    assert code == 3
    assert "Taylor vs cellular" in json.loads(out)["verification_error"]


def test_verify_checks_the_taylor_shift_sums(capsys, monkeypatch, rp2, tmp_path):
    """A grouped Taylor fold that loses its torsion leaves the per-support
    tables equal, and `verify` on RP^2 still exits 3, naming the sums."""
    from momangle import cli
    real = cli.ty._add_group
    monkeypatch.setattr(cli.ty, "_add_group", lambda ranks, torsion, key, rank, factors,
                        times: real(ranks, torsion, key, rank, (), times))
    path = tmp_path / "rp2.json"
    path.write_text(json.dumps(rp2.to_json_dict()))
    code, out, _ = run_cli(capsys, "verify", "--complex", str(path))
    assert code == 3
    error = json.loads(out)["verification_error"]
    assert error == "Taylor sums vs cellular sums differ"


def test_verify_skips_the_taylor_checks_past_the_bound(tmp_path, capsys):
    # 8 isolated points have 28 missing edges, past the Taylor bound of 20:
    # the table and the resolution check are both skipped, nothing hangs
    path = tmp_path / "points8.json"
    path.write_text('{"m": 8, "facets": []}')
    code, out, err = run_cli(capsys, "verify", "--complex", str(path))
    assert code == 0 and "Traceback" not in err
    report = json.loads(out)
    assert report["skipped"] == ["|MF(K)|=28 exceeds the Taylor bound 20"]
    assert report["failures"] == []


def test_verify_checks_the_lattice_against_the_cone_test(capsys, monkeypatch):
    from momangle import moment_angle as ma
    real = ma.lattice_supports
    monkeypatch.setattr(ma, "lattice_supports", lambda K: real(K)[:-1])
    code, out, _ = run_cli(capsys, "verify", "--complex", SUB5_EXPR)
    assert code == 3
    assert "cone-free subsets vs missing-face lattice" in json.loads(out)["verification_error"]


@pytest.mark.parametrize("verb, calls", [("taylor", 0), ("verify", 1)])
def test_hochster_table_runs_only_in_verify(capsys, monkeypatch, verb, calls):
    import momangle
    from momangle import moment_angle as ma
    real, seen = ma.hochster_table, []

    def counted(*args):
        seen.append(args)
        return real(*args)
    for mod in vars(momangle).values():
        if getattr(mod, "hochster_table", None) is real:
            monkeypatch.setattr(mod, "hochster_table", counted)
    run_json(capsys, verb, "--complex", SUB5_EXPR)
    assert len(seen) == calls


def face_reads(monkeypatch):
    """Every read of a complex's face bitmasks, which builds them from the
    facets the first time, as a list of the complexes read."""
    reads, raw = [], SimplicialComplex.face_masks
    monkeypatch.setattr(SimplicialComplex, "face_masks",
                        property(lambda K: reads.append(K) or raw.fget(K)))
    cli._load.cache_clear()
    return reads


SIMPLEX12 = "simplex(" + ",".join(map(str, range(1, 13))) + ")"


@pytest.mark.parametrize("argv", [
    ("taylor", "--complex", "JSON"),
    ("mf", "--complex", "JSON"),
    ("homology", "--complex", SIMPLEX12),
    ("status", "--complex", SIMPLEX12, "--w", "[1,2]"),
], ids=["taylor-json", "mf-json", "homology-simplex12", "status-simplex12"])
def test_facet_reads_build_no_face(capsys, monkeypatch, tmp_path, argv):
    """`taylor` and `mf` on a JSON complex, and `homology` and `status`
    on the 12-vertex simplex, read the facets and the missing faces only,
    and build no face."""
    path = tmp_path / "sub5.json"
    path.write_text(json.dumps(parse_complex(SUB5_EXPR).to_json_dict()))
    reads = face_reads(monkeypatch)
    argv = [str(path) if a == "JSON" else a for a in argv]
    report = run_json(capsys, *argv)
    assert reads == []
    assert report["generator_order"] == ([] if "simplex" in argv[2] else ["123", "145", "245", "345"])
    assert run_json(capsys, "subst", "--complex", argv[2])["complex"]["facets"] and reads == []


@pytest.mark.parametrize("K", [parse_complex(SUB5_EXPR), closed_form_family("cross-polytope", 8)],
                         ids=["sub5", "cross-polytope-8"])
def test_cone_free_subsets_read_the_facets_alone(monkeypatch, K):
    """The supports come from a pass over the facets of a K built from
    them: no face bitmask is read and no missing face is found, and they
    are the lattice that the missing faces give."""
    reads = face_reads(monkeypatch)
    lattice_supports.cache_clear()
    subsets = lattice_supports(K)
    assert reads == [] and K._mf is None
    assert subsets == tuple(sorted({0, *mask_unions(K.generators().masks)}))


def test_memory_error_is_a_size_refusal(capsys, monkeypatch):
    """A complex whose construction runs out of memory exits 2 with a
    one-line refusal and no traceback, as past a size bound."""
    from momangle import complexes

    def exhausted(text, max_vertices=None):
        raise MemoryError()
    monkeypatch.setattr(complexes, "parse_complex", exhausted)
    cli._load.cache_clear()
    code, out, err = run_cli(capsys, "status", "--complex", "simplex(1,2,3)", "--w", "[1,2]")
    assert (code, out) == (2, "")
    assert err == "size refusal: status ran out of memory\n" and "Traceback" not in err


def test_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "mf", "--complex", "nonsense(")
    assert code == 1 and "unknown builder" in err


def test_whitehead_parse_error(capsys):
    code, _, err = run_cli(capsys, "hurewicz", "--w", "[[1,2],[1,3]]")
    assert code == 1 and "twice" in err


def test_size_refusal_exit_code(capsys):
    big = "simplex(" + ",".join(map(str, range(1, 26))) + ")"
    code, _, err = run_cli(capsys, "homology", "--complex", big)
    assert code == 2 and "above" in err


def test_whitehead_leaves_gated_by_max_vertices(capsys):
    bracket = "[" + ",".join(map(str, range(1, 22))) + "]"
    code, _, err = run_cli(capsys, "delta-w", "--w", bracket)
    assert code == 2 and "21 leaves" in err
    data = run_json(capsys, "delta-w", "--w", "[" + ",".join(map(str, range(1, 13))) + "]")
    assert data["dimension"] == 23
    assert len(data["sphere_facets"]) == 12


def test_missing_argument(capsys):
    code, _, err = run_cli(capsys, "homology")
    assert code == 1 and "--complex" in err


def test_text_format(capsys):
    code, out, _ = run_cli(capsys, "status", "--complex", SUB5_EXPR,
                           "--w", "[3,4,5]", "--format", "text")
    assert code == 0 and "status: defined-nontrivial" in out


def test_json_file_input(tmp_path, capsys):
    path = tmp_path / "k.json"
    path.write_text(json.dumps({"m": 3, "facets": [[1, 2], [1, 3], [2, 3]]}))
    data = run_json(capsys, "homology", "--complex", str(path))
    assert data["ranks"] == {"0": 1, "5": 1}


def test_roundtrip_emitted_complex(tmp_path, capsys):
    data = run_json(capsys, "subst", "--complex", SUB5_EXPR)
    path = tmp_path / "sub5.json"
    path.write_text(json.dumps(data["complex"]))
    again = run_json(capsys, "mf", "--complex", str(path))
    assert again["missing_faces"] == data["missing_faces"]


BAD_FILES = {"bad.json": "{not json", "no_facets.json": '{"m": 3}',
             "no_m.json": '{"facets": [[1, 2]]}',
             "undefined.json": '{"m": 3, "facets": [[1, 2], [3]]}',
             "points4.json": '{"m": 4, "facets": []}',
             "points40.json": '{"m": 40, "facets": []}',
             # m and every label must be JSON integers, m >= 0
             "float_label.json": '{"m": 3, "facets": [[1.5, 2]]}',
             "bool_label.json": '{"m": 3, "facets": [[true, 2]]}',
             "string_label.json": '{"m": 3, "facets": [["2", 3]]}',
             "float_m.json": '{"m": 3.9, "facets": [[1, 2]]}',
             "negative_m.json": '{"m": -1, "facets": []}',
             # admitted by --max-vertices, refused by the bitset bound
             "points300000.json": '{"m": 300000, "facets": []}'}


@pytest.mark.parametrize("argv, expected", [
    # expected: the exit code, or the answer of a run that exits 0
    (["homology", "--complex", "missing.json"], 1),
    (["homology", "--complex", "bad.json"], 1),
    (["mf", "--complex", "no_facets.json"], 1),
    (["mf", "--complex", "no_m.json"], 1),
    (["delta-w", "--w", "[[1,2],[3,4]]"], {"sphere_facets": None}),
    (["zigzag", "--complex", "undefined.json", "--w", "[1,2,3]"], 1),
    (["taylor-cycle", "--complex", "points4.json", "--w", "[[2,3],1,4]"], 1),
    (["mf", "--complex", "float_label.json"], 1),
    (["mf", "--complex", "bool_label.json"], 1),
    (["mf", "--complex", "string_label.json"], 1),
    (["mf", "--complex", "float_m.json"], 1),
    (["mf", "--complex", "negative_m.json"], 1),
    (["mf", "--complex", "points300000.json", "--max-vertices", "1000000"], 2),
    # a leaf outside K: the product is not defined
    (["status", "--complex", "pt", "--w", "[1,2]"], {"status": "undefined"}),
    # a ghost vertex outside the leaves: a single product whose leaves span a
    # face answers, and `realises` classes its chain in the blocks of the
    # leaves, whose singletons are all faces
    (["status", "--complex", "join(simplex(1,2),bd(pt))", "--w", "[1,2]"],
     {"status": "defined-trivial"}),
    (["realises", "--complex", "join(simplex(1,2),bd(pt))", "--w", "[1,2]"],
     {"defined": "yes", "nontrivial": "no",
      "notes": ["canonical class vanishes", "trivialising join is a subcomplex"]}),
    # 40 isolated points past the default bound: their 780 edges are found
    # with no vertex gate and named in every report, and only the Taylor
    # gate refuses them
    (["mf", "--complex", "points40.json", "--max-vertices", "40"],
     {"missing_faces": [list(f) for f in combinations(range(1, 41), 2)]}),
    (["status", "--complex", "points40.json", "--max-vertices", "40", "--w", "[1,2]"],
     {"status": "defined-nontrivial",
      "generator_order": [f"{i}.{j}" if j > 9 else f"{i}{j}"
                          for i, j in combinations(range(1, 41), 2)]}),
    (["taylor", "--complex", "points40.json", "--max-vertices", "40"], 2),
    (["homology", "--complex", "pt", "--bogus"], 1),
    ([], 1),
    (["frobnicate"], 1),
    (["homology", "--complex", "pt", "--max-vertices", "x"], 1),
    (["homology", "--complex", "pt", "--seed", "0"], 1),
    (["mf", "--complex", "bd(" * 1000 + "pt" + ")" * 1000], 1),
    (["hurewicz", "--w", "".join(f"[{v}," for v in range(1, 1501)) + "1501"
      + "]" * 1500], 1),
    # an option the verb does not read is refused, not ignored
    (["verify", "--complex", "bd(simplex(1,2,3))", "--w", "[1,2]"], 1),
    (["homology", "--complex", "pt", "--order", "5,6", "--subset", "9"], 1),
    (["delta-w", "--w", "[1,2]", "--complex", "nonsense("], 1),
    # a leaf far outside K: answered from the range check, before any bitmask
    # is made of the leaves
    (["status", "--complex", "pt", "--w", "[1,1000000000]"], {"status": "undefined"}),
    (["status", "--complex", "pt", "--w", "[1,99999999999999999999]"], {"status": "undefined"}),
    (["status", "--complex", "pt", "--w", "[[1,2],99999999999999999999]"], {"status": "undefined"}),
    (["realises", "--complex", "pt", "--w", "[1,1000000000]"], {"defined": "no"}),
    (["realises", "--complex", "pt", "--w", "[1,99999999999999999999]"], {"defined": "no"}),
    (["taylor-cycle", "--complex", "pt", "--w", "[1,1000000000]"], 1),
    (["taylor-cycle", "--complex", "pt", "--w", "[1,99999999999999999999]"], 1),
    # with no K, a leaf label above --max-vertices is a size refusal before
    # the chain's cells are made bitmasks over it; delta-w relabels its
    # leaves and answers
    (["hurewicz", "--w", "[1,99999999999999999999]"], 2),
    (["hurewicz", "--w", "[1,2,100000000]"], 2),
    (["delta-w", "--w", "[1,99999999999999999999]"], {"dimension": 3}),
    (["delta-w", "--w", "[1,2,100000000]"], {"dimension": 5}),
    # an empty option value is parsed like any other, not dropped
    (["hochster", "--complex", "pt", "--subset", ""], 1),
    (["wedge-basis", "--complex", "pt", "--order", ""], 1),
    # a token that is no integer is named, with its option
    (["hochster", "--complex", "pt", "--subset", "1,,2"], 1),
    (["wedge-basis", "--complex", "pt", "--order", "1,x"], 1),
    # a bare leaf is no product: every verb that reads --w refuses it
    (["status", "--complex", "points4.json", "--w", "5"], 1),
    (["realises", "--complex", "points4.json", "--w", "5"], 1),
    (["hurewicz", "--w", "5"], 1),
    (["zigzag", "--complex", "points4.json", "--w", "5"], 1),
    (["taylor-cycle", "--complex", "points4.json", "--w", "5"], 1),
    (["delta-w", "--w", "5"], 1),
    # a bracket of sub-products only has no canonical cellular chain:
    # `realises` cannot decide it, while `status` decides it by the criterion
    (["realises", "--complex", "points4.json", "--w", "[[1,2],[3,4]]"],
     {"defined": "yes", "nontrivial": "unknown", "witness": None,
      "notes": ["brackets with sub-products only have no canonical cellular chain"]}),
    (["status", "--complex", "points4.json", "--w", "[[1,2],[3,4]]"],
     {"status": "defined-nontrivial"}),
])
def test_bad_inputs_exit_without_traceback(tmp_path, capsys, argv, expected):
    for name, text in BAD_FILES.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert "Traceback" not in err
    if isinstance(expected, dict):
        assert code == 0, err
        data = json.loads(out)
        assert {key: data[key] for key in expected} == expected
    else:
        assert code == expected, err
        assert err.startswith("size refusal: " if expected == 2 else "error: ")


@pytest.mark.parametrize("argv, named", [
    (["hochster", "--complex", "pt", "--subset", "1,,2"], "--subset '1,,2': token ''"),
    (["wedge-basis", "--complex", "pt", "--order", "1,x"], "--order '1,x': token 'x'"),
])
def test_bad_integer_token_is_named(capsys, argv, named):
    code, _, err = run_cli(capsys, *argv)
    assert code == 1 and named in err


def _random_nested_text(rng, vertices):
    """A nested product on at least three of `vertices`, as text."""
    leaves = rng.sample(vertices, rng.randint(3, len(vertices)))
    cut = rng.randint(2, len(leaves) - 1)
    text, rest = "[" + ",".join(map(str, leaves[:cut])) + "]", leaves[cut:]
    while rest:
        take = rng.randint(1, len(rest))
        text = "[" + ",".join([text] + list(map(str, rest[:take]))) + "]"
        rest = rest[take:]
    return text


def test_taylor_cycle_exits_0_or_1(tmp_path, capsys):
    """`taylor-cycle` on random nested products never fails its own cycle
    check: a product that is not defined, or whose closed form is no cycle
    of K, is refused with exit 1.  Half the complexes are `random_complex`,
    half bd_Delta(w) with up to three random faces added; both exit codes
    occur."""
    rng = random.Random(1600)
    path = tmp_path / "k.json"
    codes = Counter()
    for trial in range(400):
        m = rng.randint(3, 8)
        text = _random_nested_text(rng, list(range(1, m + 1)))
        if trial % 2:
            K = random_complex(m, rng)
        else:
            w = parse_whitehead(text)
            dw = delta_w(w)
            facets = list(relabelled(dw.complex, vertex_to_leaf(dw), m=m).facets)
            facets += [rng.sample(range(1, m + 1), rng.randint(2, m - 1))
                       for _ in range(rng.randint(0, 3))]
            K = SimplicialComplex.from_facets(m, facets)
        path.write_text(json.dumps(K.to_json_dict()))
        code, _, err = run_cli(capsys, "taylor-cycle", "--complex", str(path), "--w", text)
        assert code in (0, 1), (K.to_json_dict(), text, err)
        assert "Traceback" not in err
        codes[code, trial % 2] += 1
    assert all(codes[code, half] for code in (0, 1) for half in (0, 1)), codes


def test_taylor_cycle_degree_is_read_off_the_leaves(tmp_path, capsys):
    """`taylor-cycle` writes the degree 2|L| - s, L the leaves, without
    walking the words; it is the chain's own `TaylorChain.degree` on every
    golden `taylor-cycle` case and on 60 seeded nested products over
    bd_Delta(w) with the leaves among up to two more vertices."""
    cases = [entry["argv"][1:] for entry in load_golden().values()
             if entry["argv"][0] == "taylor-cycle" and entry["code"] == 0]
    rng = random.Random(41)
    for trial in range(60):
        m = rng.randint(3, 8)
        text = _random_nested_text(rng, list(range(1, m + 1)))
        dw = delta_w(parse_whitehead(text))
        path = tmp_path / f"k{trial}.json"
        path.write_text(json.dumps(relabelled(dw.complex, vertex_to_leaf(dw), m=m).to_json_dict()))
        cases.append(["--complex", str(path), "--w", text])
    for args in cases:
        data = run_json(capsys, "taylor-cycle", *args)
        K = cli.load_complex(args[1], 20)
        assert data["degree"] == TaylorChain.from_text(K, data["cycle"]).degree, args
    assert len(cases) >= 65


@pytest.mark.parametrize("w", ["[1,2]", "[[1,2],3]", "[1,1000]", "[[1,2],1000]"])
def test_status_with_a_leaf_outside_K_is_undefined(capsys, w):
    # single and nested products agree with `realises`: not defined
    assert run_json(capsys, "status", "--complex", "pt", "--w", w)["status"] == "undefined"
    data = run_json(capsys, "realises", "--complex", "pt", "--w", w)
    assert (data["defined"], data["nontrivial"]) == ("no", "no")
    code, _, err = run_cli(capsys, "taylor-cycle", "--complex", "pt", "--w", w)
    assert code == 1
    assert err == f"error: bd_Delta({w}) does not sit in K: the product is not defined\n"


@pytest.mark.parametrize("verb", ["status", "realises", "taylor-cycle"])
def test_a_far_leaf_label_costs_no_memory(capsys, verb):
    """The leaf 10^9 is compared with m before it could become a bitmask
    of 10^9 bits (125 MB)."""
    tracemalloc.start()
    try:
        run_cli(capsys, verb, "--complex", "pt", "--w", "[1,1000000000]")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak


def test_wedge_basis_refuses_ghost_vertices(capsys):
    """A ghost vertex is a missing face of one vertex; it is refused as the
    other Z_K verbs refuse it, not by the bracket it would give."""
    for verb in ("wedge-basis", "homology", "verify"):
        code, out, err = run_cli(capsys, verb, "--complex", "bd(bd(simplex(1,2)))")
        assert code == 1 and out == ""
        assert err == "error: Z_K needs every singleton to be a face\n", verb


def test_status_outside_the_criterion_exits_0(tmp_path, capsys):
    # the inner leaf set [6,7] is a face of K, so the nested criterion does
    # not apply; the canonical class bounds and the trivialising join is
    # absent, so the status is unknown, as `realises` reports
    path = tmp_path / "k.json"
    path.write_text(json.dumps({"m": 8, "facets": [
        [2, 6], [2, 7], [2, 3, 5], [2, 3, 8], [2, 5, 8], [1, 4, 5, 7], [3, 4, 5, 6, 7, 8]]}))
    data = run_json(capsys, "status", "--complex", str(path), "--w", "[[3,5,8],[6,7],2]")
    assert data["status"] == "defined-unknown"
    assert data["notes"] == [
        "outside the paper's criterion: an inner product's leaf set is a face "
        "of K, so the status is decided as `realises` does"]
    inside = run_json(capsys, "status", "--complex", SUB5_EXPR, "--w", "[[1,2,3],4,5]")
    assert "notes" not in inside


def test_status_decides_the_criterion_once(tmp_path, capsys):
    """One `status` call scans K's missing faces among the leaves once
    (`_containment`, one miss) and reads the criterion, the note and the
    self-checks from that answer, inside the criterion's domain and outside
    it (where the note comes from it)."""
    from momangle import whitehead as wh
    path = tmp_path / "k.json"
    path.write_text(json.dumps({"m": 8, "facets": [
        [2, 6], [2, 7], [2, 3, 5], [2, 3, 8], [2, 5, 8], [1, 4, 5, 7], [3, 4, 5, 6, 7, 8]]}))
    cases = ((str(path), "[[3,5,8],[6,7],2]", 1), (SUB5_EXPR, "[[1,2,3],4,5]", 0))
    for complex_, w, notes in cases:
        wh._containment.cache_clear()
        data = run_json(capsys, "status", "--complex", complex_, "--w", w)
        assert len(data.get("notes", ())) == notes
        info = wh._containment.cache_info()
        assert info.misses == 1 and info.hits >= 1, (w, info)


def test_self_check_failure_exits_3(capsys, monkeypatch):
    """Inside the criterion's domain `status` checks its verdict against
    `realises`; a `realises` that finds no nonzero class for a nontrivial
    product fails that check, and the CLI exits 3 with the check's text."""
    from momangle import whitehead as wh
    monkeypatch.setattr(wh, "realises_sufficient",
                        lambda K, w: wh.RealisationReport("yes", "unknown", None))
    code, out, err = run_cli(capsys, "status", "--complex", SUB5_EXPR,
                             "--w", "[[1,2,3],4,5]")
    assert code == 3
    assert "Traceback" not in err
    assert "bounding canonical class" in json.loads(out)["verification_error"]


def test_zigzag_with_two_digit_labels(capsys):
    expr = "join(bd(simplex(1,2,3,4,5,6,7,8,9)),bd(simplex(1,2)))"
    data = run_json(capsys, "zigzag", "--complex", expr, "--w", "[10,11]")
    assert data["cycle"] in ("w10.11", "-w10.11")
    assert data["generator_order"] == ["10.11", "123456789"]
    cycle = TaylorChain.from_text(parse_complex(expr), data["cycle"])
    assert labelled_words(cycle).keys() == {((10, 11),)}
    assert cycle.to_text() == data["cycle"]
    # multi-word cycles with dotted names: the words run in the order of
    # their generator index tuples, so `w9.12` comes before `w10.11`, which
    # neither a string sort nor a sort by the integer index mask gives
    expr = "join(simplex(1,2,3,4,5,6,7,8),bd(bd(bd(simplex(1,2,3,4)))))"
    twelve = ["--complex", expr, "--w", "[[[9,10],11],12]"]
    expected = {
        "taylor-cycle": "w9.12^w9.11^w9.10 + w10.12^w9.11^w9.10 + w11.12^w9.11^w9.10"
                        " - w10.11^w9.12^w9.10 + w10.12^w10.11^w9.10 + w11.12^w10.11^w9.10",
        "zigzag": "w9.12^w9.11^w9.10 - w11.12^w9.12^w9.10 + w10.12^w10.11^w9.10"
                  " - w11.12^w10.12^w9.10 + w10.11^w9.12^w9.11 + w10.12^w9.12^w9.11"
                  " + w10.12^w10.11^w9.11 - w11.12^w10.12^w9.11 + w10.12^w10.11^w9.12"
                  " + w11.12^w10.11^w9.12"}
    for verb, text in expected.items():
        data = run_json(capsys, verb, *twelve)
        assert data["cycle"] == text, verb
        assert data["generator_order"] == ["9.10", "9.11", "9.12", "10.11", "10.12", "11.12"]
        assert TaylorChain.from_text(parse_complex(expr), text).to_text() == text


def test_parser_reused_across_calls(capsys):
    """The argv reader keeps nothing between calls: bad, good, then bad argv
    again give the exit codes and outputs that each gives in the reverse
    order of calls, and no argparse parser is built or kept."""
    argvs = [["homology", "--complex", "pt", "--max-vertices", "x"],
             ["mf", "--complex", SUB5_EXPR],
             ["homology", "--complex", "pt", "--max-vertices", "x"],
             ["frobnicate"],
             ["homology", "--complex", SUB5_EXPR, "--format", "text"]]

    def run(argv):
        code, out, err = run_cli(capsys, *argv)
        return code, [line for line in out.splitlines() if "elapsed_s" not in line], err

    fresh = [run(argv) for argv in reversed(argvs)][::-1]
    reused = [run(argv) for argv in argvs]
    assert "argparse" not in vars(cli)
    assert reused == fresh
    assert [code for code, _, _ in reused] == [1, 0, 1, 1, 0]


SIMPLEX11 = "simplex(" + ",".join(map(str, range(1, 12))) + ")"


@pytest.mark.parametrize("argv, code", [
    # an option may be a unique prefix, and take its value after '='
    (["homology", "--comp", "pt"], 0),
    (["homology", "--c", "pt"], 0),
    (["homology", "--complex", "pt", "--max-v=3"], 0),
    (["homology", "--complex=pt", "--format=text"], 0),
    # a repeated option keeps its last value
    (["homology", "--complex", "nonsense(", "--complex", "pt"], 0),
    (["homology", "--complex", "pt", "--complex", "nonsense("], 1),
    (["homology", "--complex", "pt", "--format", "xml", "--format", "json"], 1),
    # help, for the whole command and for a verb, before any missing option
    (["-h"], 0),
    (["--help"], 0),
    (["homology", "-h"], 0),
    (["homology", "--h"], 0),
    (["-h", "frobnicate"], 0),
    # no verb, or none of the 13
    (["frobnicate"], 1),
    ([], 1),
    (["--complex", "pt", "homology"], 1),
    # an option with no value, a stray token, '--', a value not among the choices
    (["homology", "--complex"], 1),
    (["homology", "--complex", "pt", "stray"], 1),
    (["homology", "--complex", "pt", "--"], 1),
    (["homology", "--", "--complex", "pt"], 1),
    (["--", "homology", "--complex", "pt"], 1),
    (["homology", "--complex", "pt", "--format", "xml"], 1),
    (["homology", "--complex", "pt", "--help=yes"], 1),
    # a value that begins with '-' reads as an option unless it is a number
    (["hochster", "--complex", "pt", "--subset", "-1,2"], 1),
    (["hochster", "--complex", "pt", "--subset=-1,2"], 1),
    # int() reads --max-vertices: 1_0 is 10, which refuses 11 vertices, and -1
    # is a number that refuses every complex
    (["mf", "--complex", SIMPLEX11, "--max-vertices", "1_0"], 2),
    (["mf", "--complex", SIMPLEX11, "--max-vertices", "1_1"], 0),
    (["homology", "--complex", "pt", "--max-vertices", "-1"], 2),
    (["homology", "--complex", "pt", "--max-vertices", "-1.5"], 1),
])
def test_argv_contract(capsys, argv, code):
    """Each form exits as the argparse parser this reader replaced did."""
    got, out, err = run_cli(capsys, *argv)
    assert got == code, err
    assert "Traceback" not in err
    if code == 1:
        assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize("argv, code", [
    # argparse read -h=h as -h twice; the reader refuses the value of -h
    (["homology", "-h=h"], 1),
    # argparse refused an ambiguous option (an empty name after '--') before
    # it read any other token; the reader reads left to right, so an earlier
    # -h answers first, and with no -h the option still exits 1
    (["homology", "-h", "--=x"], 0),
    (["homology", "--complex", "pt", "--=x"], 1),
])
def test_argv_forms_read_otherwise_than_by_argparse(capsys, argv, code):
    got, _, err = run_cli(capsys, *argv)
    assert got == code, err


def test_argv_values():
    def read(*argv):
        args = read_argv(list(argv))
        return [getattr(args, k) for k in ("verb", "complex", "w", "subset", "order",
                                           "format", "max_vertices")]

    assert read("homology", "--c", "pt", "--max-v=3") == [
        "homology", "pt", None, None, None, "json", 3]
    assert read("status", "--w", "[1,2]", "--comp=a", "--f", "text", "--complex", "b",
                "--format=json") == ["status", "b", "[1,2]", None, None, "json", 20]
    assert read("hochster", "--complex", "pt", "--subset", "1,2")[3] == "1,2"
    assert read("wedge-basis", "--complex", "pt", "--o=-1,2")[4] == "-1,2"
    assert read("mf", "--complex", "pt", "--max-vertices", "1_0")[6] == 10
    assert read("mf", "--complex", "pt", "--max-vertices", "-1")[6] == -1
    assert read("mf", "--complex", "-", "--max-vertices", " 7 ")[1:] == [
        "-", None, None, None, "json", 7]


def test_help_lists_the_verbs_and_a_verbs_options(capsys):
    code, out, err = run_cli(capsys, "--help")
    assert code == 0 and err == ""
    verbs = out.split("verbs:\n")[1].split("\n\n")[0]
    assert [line.split()[0] for line in verbs.splitlines()] == list(cli.COMMANDS)
    for verb, options in [("homology", ["--complex", "--format", "--max-vertices"]),
                          ("hochster", ["--complex", "--subset", "--format", "--max-vertices"]),
                          ("delta-w", ["--w", "--format", "--max-vertices"])]:
        code, out, err = run_cli(capsys, verb, "-h")
        assert code == 0 and err == ""
        assert out.startswith(f"usage: momangle {verb} ")
        assert [line.split()[0] for line in out.splitlines() if line.startswith("  --")] == options


@pytest.mark.parametrize("name, content", [
    ("truncated.json", b'{"m": 3,'),
    ("trailing.json", b'{"m": 3, "facets": []} x'),
    ("latin1.json", b'{"m": 3, "facets": [], "name": "caf\xe9"}'),
])
def test_json_load_errors_name_the_file(tmp_path, capsys, name, content):
    path = tmp_path / name
    path.write_bytes(content)
    code, out, err = run_cli(capsys, "mf", "--complex", str(path))
    assert code == 1 and out == ""
    assert err.startswith(f"error: cannot load a complex from {path}: "), err


def malformed_complex(rng):
    """A seeded JSON complex, most often malformed: m an int (at times past
    the bound of 12 or of 64), a bool, float, string or list; facets a list
    or not; labels ints in and out of 1..m (0, negative, far), repeated,
    bools, floats, strings, lists and null; a missing key now and then."""
    m = rng.choice([rng.randint(0, 9)] * 12 + [rng.randint(10, 80)] * 3 +
                   [-1, True, 2.0, "5", [3], None])
    size = m if type(m) is int and 0 < m <= 64 else 8

    def label():
        return rng.choice([rng.randint(1, size)] * 8 + [
            0, -rng.randint(1, 3), size + 1, size + 1, size + 2, 10 ** 20, True, False, 1.0,
            2.5, "3", [1], [[2]], None])

    def facet():
        f = rng.sample(range(1, size + 1), rng.randint(0, min(4, size)))
        if rng.random() < 0.15:
            f = f[:rng.randint(0, len(f))] + [label()] + f[rng.randint(0, len(f)):]
        if f and rng.random() < 0.04:
            f.append(rng.choice(f))
        return f if rng.random() < 0.98 else rng.choice([3, "12", {"1": 2}, None, True])
    facets = [facet() for _ in range(rng.randint(0, 6))]
    if rng.random() < 0.04:
        facets = rng.choice([7, "123", {"": 1}, None, {"12": 1}, [[[1, 2]]]])
    data = {"m": m, "facets": facets}
    if rng.random() < 0.03:
        del data[rng.choice(["m", "facets"])]
    return data


def test_json_loader_fuzz_matches_the_reference_reader(tmp_path, capsys, monkeypatch):
    """On 600 seeded JSON complexes, most of them malformed, `mf` gives the
    exit code, report and error text it gives with the reader that checks m,
    every label's type, the bound, then each face in turn
    (`oracles.reference_from_json_dict`), under --max-vertices 12, 100 or
    the default, 20."""
    rng = random.Random(5903)
    path, outcomes, errors = tmp_path / "k.json", Counter(), set()
    fast = SimplicialComplex.from_json_dict
    slow = classmethod(lambda cls, data, max_vertices=None:
                       reference_from_json_dict(data, max_vertices))
    for _ in range(600):
        path.write_text(json.dumps(malformed_complex(rng)))
        argv = ["mf", "--complex", str(path)] + rng.choice(
            [[], ["--max-vertices", "12"], ["--max-vertices", "100"]])
        runs = []
        for reader in (fast, slow):
            monkeypatch.setattr(SimplicialComplex, "from_json_dict", reader)
            cli._load.cache_clear()
            code, out, err = run_cli(capsys, *argv)
            runs.append((code, [line for line in out.splitlines() if "elapsed_s" not in line], err))
        assert runs[0] == runs[1], path.read_text()
        outcomes[runs[0][0]] += 1
        errors.add(runs[0][2])
    assert outcomes[0] > 150 and outcomes[1] > 250 and outcomes[2] > 20, outcomes
    for refusal in ["m must be", "labels must be integers", "duplicate vertex", "must be positive",
                    "out of range", "above the bound 12", "bitset bound", "KeyError", "TypeError"]:
        assert any(refusal in error for error in errors), refusal


def test_an_edited_json_file_gives_its_new_complex(tmp_path, capsys):
    """The complex is memoised on the file's text, not its path: a file
    rewritten between two calls in one process is read and built again."""
    path = tmp_path / "k.json"
    path.write_text(json.dumps({"m": 2, "facets": []}))
    two_points = run_json(capsys, "homology", "--complex", str(path))
    path.write_text(json.dumps({"m": 2, "facets": [[1, 2]]}))
    edge = run_json(capsys, "homology", "--complex", str(path))
    assert two_points["ranks"] == {"0": 1, "3": 1}
    assert edge["ranks"] == {"0": 1}
    assert edge["generator_order"] == []


def test_refusals_and_parse_errors_are_not_memoised(tmp_path, capsys):
    """A size refusal, then the same file under the default bound, runs; a
    bad bracket or a bad file fails on every call, not only the first."""
    path = tmp_path / "k.json"
    path.write_text(json.dumps({"m": 3, "facets": [[1, 2]]}))
    code, out, err = run_cli(capsys, "mf", "--complex", str(path), "--max-vertices", "2")
    assert code == 2 and out == "" and "size refusal" in err
    assert run_json(capsys, "mf", "--complex", str(path))["missing_faces"] == [[1, 3], [2, 3]]
    for _ in range(2):
        code, out, err = run_cli(capsys, "status", "--complex", SUB5_EXPR, "--w", "[1,[2]]")
        assert code == 1 and out == "" and err.startswith("error: ")
    path.write_text('{"m": 3}')
    for _ in range(2):
        code, _, err = run_cli(capsys, "mf", "--complex", str(path))
        assert code == 1 and "cannot load a complex" in err


def test_every_memo_is_bounded():
    from momangle import cli, complexes, moment_angle, whitehead
    memos = [cli._load, whitehead.parse_whitehead, whitehead._canonical_chain,
             whitehead._canonical_bounds, whitehead._containment, moment_angle.lattice_supports,
             complexes._upper_halves]
    assert all(0 < memo.cache_info().maxsize < 1000 for memo in memos)


def closure_callers(monkeypatch):
    """The name of the function that calls `taylor.mask_unions`, once per
    call: the closure of masks under union."""
    from momangle import taylor as ty
    callers, raw = [], ty.mask_unions
    monkeypatch.setattr(ty, "mask_unions",
                        lambda masks: callers.append(sys._getframe(1).f_code.co_name) or raw(masks))
    return callers


def test_verify_builds_the_lattice_once(capsys, monkeypatch):
    """`verify` reads the cone-free supports three times, for the cellular
    and Hochster tables and for its check, and runs their pass once, the
    memo's one miss; it walks the closure of the missing faces once, for
    that check, and Lyubeznik's check walks the lcm lattice."""
    from momangle import moment_angle as ma
    callers = closure_callers(monkeypatch)
    ma.lattice_supports.cache_clear()
    assert run_json(capsys, "verify", "--complex", SUB5_EXPR)["failures"] == []
    assert callers == ["cmd_verify", "verify_taylor_is_resolution"]
    assert ma.lattice_supports.cache_info().misses == 1
    assert ma.lattice_supports.cache_info().hits == 2


@pytest.mark.parametrize("argv", [
    ("homology", "--complex", SUB5_EXPR),
    ("hochster", "--complex", SUB5_EXPR),
    ("wedge-basis", "--complex", "bd(bd(bd(simplex(1,2,3,4,5,6,7))))"),
    ("taylor", "--complex", SUB5_EXPR),
], ids=["homology", "hochster", "wedge-basis", "taylor"])
def test_tables_never_enter_the_closure(capsys, monkeypatch, argv):
    """Every Z_K table reads its supports from the cone-free pass: no verb
    but `verify` walks the closure of the missing faces."""
    callers = closure_callers(monkeypatch)
    run_json(capsys, *argv)
    assert callers == []


def test_verify_refuses_before_any_table(capsys, monkeypatch):
    """On 21 vertices `verify` meets the Hochster gate before it reduces
    any block; the Z_K gate and a ghost vertex still come first."""
    from momangle import moment_angle as ma
    seen, star_cells = [], ma._star_cells
    monkeypatch.setattr(ma, "_star_cells", lambda K, smask: seen.append(smask) or star_cells(K, smask))

    def labels(n):
        return ",".join(map(str, range(1, n + 1)))
    for expr, code, message in [
            (f"bd(simplex({labels(21)}))", 2, "size refusal: Hochster table refuses m=21 > 20"),
            (f"bd(simplex({labels(25)}))", 2, "size refusal: Z_K cell enumeration refuses m=25 > 24"),
            (f"join(bd(bd(simplex(1,2))), simplex({labels(19)}))", 1,
             "error: Z_K needs every singleton to be a face")]:
        assert run_cli(capsys, "verify", "--complex", expr, "--max-vertices", "30") == (
            code, "", message + "\n"), expr
    assert seen == []


def test_verify_checks_the_orbit_sums(capsys, monkeypatch, tmp_path):
    """A twin pass that merges the vertices 1 and 2 of the path 1-2-3-4,
    which are no twins, makes `homology`'s orbit sums differ from the
    direct cellular table, and `verify` exits 3 on it."""
    from momangle import moment_angle as ma
    path = str(tmp_path / "path.json")
    with open(path, "w") as fh:
        json.dump({"m": 4, "facets": [[1, 2], [2, 3], [3, 4]]}, fh)
    assert run_json(capsys, "verify", "--complex", path)["failures"] == []
    monkeypatch.setattr(ma, "twin_classes", lambda K: [(1, 2)])
    code, out, _ = run_cli(capsys, "verify", "--complex", path)
    assert code == 3
    assert json.loads(out)["failures"] == ["orbit sums vs cellular table differ"]


def test_verify_checks_the_one_degree_count(capsys, monkeypatch):
    """Every cellular and Taylor table counts a block in one degree by the
    length of its word list, in one fold (`fold_blocks`).  Word lists that
    each report one word more than they hold break that count and no other
    reading, since the columns iterate the words; `verify` exits 3 on it,
    as the cellular table no longer matches Hochster's, which shares no
    code with the fold."""
    from momangle import moment_angle as ma
    from momangle import taylor as ty
    assert run_json(capsys, "verify", "--complex", SUB5_EXPR)["failures"] == []

    class Longer(list):
        def __len__(self):
            return super().__len__() + 1
    cells, admissible = ma._star_cells, ty.admissible_words
    monkeypatch.setattr(ma, "_star_cells", lambda K, smask: Longer(cells(K, smask)))
    monkeypatch.setattr(ty, "admissible_words", lambda gens: {
        union: Longer(words) for union, words in admissible(gens).items()})
    code, out, _ = run_cli(capsys, "verify", "--complex", SUB5_EXPR)
    assert code == 3
    assert "cellular vs Hochster homology differ" in json.loads(out)["failures"]


def test_dense_complex_builds_no_face_set_on_any_verb(capsys, monkeypatch):
    """A dense K (here the paper's 5-vertex example, whose faces fill more
    than an eighth of its vertex sets) answers every face-membership test
    and star quotient off its face indicator: `homology`, `status`,
    `realises`, `zigzag` and `taylor-cycle` build the face set of no dense
    complex."""
    built, face_masks = [], SimplicialComplex.face_masks.fget

    def spy(K):
        if K._face_masks is None and K.face_indicator()[1] * 8 >= 1 << K.m:
            built.append(K)
        return face_masks(K)
    monkeypatch.setattr(SimplicialComplex, "face_masks", property(spy))
    for verb, w in [("homology", None), ("status", "[[1,2,3],4,5]"),
                    ("realises", "[[1,2,3],4,5]"), ("zigzag", "[[1,4,5],2]"),
                    ("taylor-cycle", "[[1,2,3],4,5]")]:
        cli._load.cache_clear()
        code, _, _ = run_cli(capsys, verb, "--complex", SUB5_EXPR, *(["--w", w] if w else []))
        assert code == 0 and built == [], verb


def test_homology_walks_one_block_per_orbit(capsys, monkeypatch, tmp_path):
    """`homology` on 20 isolated points reduces no block, where the lattice
    holds 1048556 supports, and builds no lattice: each point is a
    connected part with no missing face inside, so every group is a
    binomial count of the fold over the parts."""
    from momangle import moment_angle as ma
    blocks, lattices = [], []
    star_cells, lattice_supports = ma._star_cells, ma.lattice_supports
    monkeypatch.setattr(ma, "_star_cells", lambda *a: blocks.append(1) or star_cells(*a))
    monkeypatch.setattr(ma, "lattice_supports",
                        lambda K: lattices.append(1) or lattice_supports(K))
    path = tmp_path / "points20.json"
    path.write_text(json.dumps({"m": 20, "facets": []}))
    report = run_json(capsys, "homology", "--complex", str(path))
    assert report["ranks"]["3"] == 190
    assert not blocks and not lattices


RP2_FACETS = [[1, 2, 3], [1, 2, 4], [1, 3, 5], [1, 4, 6], [1, 5, 6],
              [2, 3, 6], [2, 4, 5], [2, 5, 6], [3, 4, 5], [3, 4, 6]]


def test_homology_reduces_no_support_across_parts(capsys, monkeypatch, tmp_path):
    """No reduced support meets two connected parts: `homology` on 12
    disjoint edges (m = 24) reduces no block, and on RP^2 beside 14
    isolated points only RP^2's own nonempty supports, each once (RP^2 has
    no twin pair), with Z/2 in degree 8 and C(14, 1) copies of it in
    degree 9."""
    from momangle import moment_angle as ma
    seen = []
    star_cells = ma._star_cells
    monkeypatch.setattr(ma, "_star_cells",
                        lambda K, smask: seen.append(smask) or star_cells(K, smask))
    edges = tmp_path / "edges12.json"
    edges.write_text(json.dumps({"m": 24, "facets": [[2 * i + 1, 2 * i + 2] for i in range(12)]}))
    report = run_json(capsys, "homology", "--complex", str(edges), "--max-vertices", "30")
    assert report["ranks"]["3"] == 264 and seen == []
    union = tmp_path / "rp2-points.json"
    union.write_text(json.dumps({"m": 20, "facets": RP2_FACETS}))
    report = run_json(capsys, "homology", "--complex", str(union))
    rp2 = SimplicialComplex.from_facets(6, [tuple(f) for f in RP2_FACETS])
    assert sorted(seen) == sorted(S for S in ma.lattice_supports(rp2) if S)
    assert report["homology"]["8"]["torsion"] == [2]
    assert report["homology"]["9"]["torsion"] == [2] * 14


RP2_18_RANKS = {0: 1, 3: 261, 4: 3738, 5: 28828, 6: 151017, 7: 588924, 8: 1795785,
                9: 4412826, 10: 8913508, 11: 14998182, 12: 21209472, 13: 25345164,
                14: 25662350, 15: 22019556, 16: 15974934, 17: 9751047, 18: 4967892,
                19: 2087549, 20: 711150, 21: 191520, 22: 39249, 23: 5752, 24: 537, 25: 24,
                26: 0}


def test_homology_runs_the_pass_on_each_part(capsys, monkeypatch, tmp_path):
    """The cone-free pass runs on each connected part's own complex: on
    RP^2 beside 18 isolated points (m = 24) once, on RP^2's 6 vertices, and
    the report is the one the closure over K's missing faces gave, with
    C(18, d - 8) copies of Z/2 in degree d.  The simplex on 22 vertices has
    no missing face, and its supports need no pass."""
    from momangle import moment_angle as ma
    passes, raw = [], ma._cone_free_by_shifts
    monkeypatch.setattr(ma, "_cone_free_by_shifts", lambda m, facets: passes.append(m) or raw(m, facets))
    path = tmp_path / "rp2-18.json"
    path.write_text(json.dumps({"m": 24, "facets": RP2_FACETS}))
    report = run_json(capsys, "homology", "--complex", str(path), "--max-vertices", "30")
    assert passes == [6]
    assert {int(d): g["rank"] for d, g in report["homology"].items()} == RP2_18_RANKS
    assert all(g["torsion"] == [2] * (comb(18, int(d) - 8) if int(d) >= 8 else 0)
               for d, g in report["homology"].items())
    passes.clear()
    ma.lattice_supports.cache_clear()
    simplex22 = parse_complex("simplex(" + ",".join(map(str, range(1, 23))) + ")", 30)
    assert ma.lattice_supports(simplex22) == (0,) and passes == []


def test_homology_finds_the_missing_faces_once(capsys, monkeypatch, tmp_path):
    """The CLI `homology` enters `missing_faces` once per call on a complex
    it loads afresh, for the report's generator order: the degree table
    reads the facets alone, on K and on each connected part's own
    complex."""
    entered, missing_faces = [], SimplicialComplex.missing_faces
    monkeypatch.setattr(SimplicialComplex, "missing_faces",
                        lambda K: entered.append(K.m) or missing_faces(K))
    path = tmp_path / "rp2-3.json"
    path.write_text(json.dumps({"m": 9, "facets": RP2_FACETS}))
    for complex_arg in [str(path), SUB5_EXPR, "join(bd(simplex(1,2)), simplex(1,2))",
                        "bd(simplex(1,2,3,4,5))"]:
        entered.clear()
        cli._load.cache_clear()
        run_json(capsys, "homology", "--complex", complex_arg)
        assert len(entered) == 1, complex_arg


def test_verify_checks_the_union_fold(capsys, monkeypatch, tmp_path):
    """A fold over connected parts that drops the extra H~_0 of the supports
    meeting two or more parts (`_bridging_ranks`) makes `homology`'s sums
    differ from the direct cellular table on an edge beside a triangle's
    boundary, and `verify` exits 3 on it."""
    from momangle import moment_angle as ma
    path = str(tmp_path / "union.json")
    with open(path, "w") as fh:
        json.dump({"m": 5, "facets": [[1, 2], [3, 4], [4, 5], [3, 5]]}, fh)
    assert run_json(capsys, "verify", "--complex", path)["failures"] == []
    monkeypatch.setattr(ma, "_bridging_ranks", lambda m, sizes: {})
    code, out, _ = run_cli(capsys, "verify", "--complex", path)
    assert code == 3
    assert json.loads(out)["failures"] == ["orbit sums vs cellular table differ"]


def random_json_value(rng, depth=0):
    """A seeded value of every kind `json.dumps` writes: strings with
    escapes and non-ASCII letters, ints, floats with NaN and the
    infinities, bools, None, empty and nested lists, tuples and dicts, and
    dict keys of every admitted type."""
    kind = rng.random()
    if depth > 3 or kind < 0.4:
        return rng.choice([None, True, False, 0, -5, 2 ** 70, 1.5, -0.0, 1e300, 3.14,
                           float("nan"), float("inf"), float("-inf"),
                           "", "S1*D2", 'a"b\\c\n\t\u00e9\u2603\U0001f600'])
    if kind < 0.6:
        return [random_json_value(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    if kind < 0.7:
        return tuple(random_json_value(rng, depth + 1) for _ in range(rng.randint(0, 3)))
    keys = ["k", "\u00e9", 1, -3, 2.5, float("inf"), True, False, None]
    return {rng.choice(keys): random_json_value(rng, depth + 1) for _ in range(rng.randint(0, 4))}


def test_report_writer_is_json_dumps_byte_for_byte():
    """`report_json` writes what `json.dumps(value, indent=2)` writes, on
    seeded values with non-str keys, floats and empty containers, and
    refuses what it refuses."""
    rng = random.Random(51)
    for _ in range(3000):
        value = random_json_value(rng)
        assert report_json(value) == json.dumps(value, indent=2), value
    for bad in ({(1, 2): 1}, [object()], {"a": {1, 2}}):
        with pytest.raises(TypeError):
            json.dumps(bad, indent=2)
        with pytest.raises(TypeError):
            report_json(bad)


def test_reports_are_indented_json(capsys):
    """Every golden JSON report is printed as `json.dumps(report, indent=2)`
    prints it; a call refused before its report prints none."""
    count = 0
    for argv in GOLDEN_CASES:
        if "--format" in argv:
            continue
        main(list(argv))
        if not (out := capsys.readouterr().out):
            continue
        assert out == json.dumps(json.loads(out), indent=2) + "\n", argv
        count += 1
    assert count > 30
