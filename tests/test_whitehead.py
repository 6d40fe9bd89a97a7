import hashlib
import json
import random
from dataclasses import replace
from itertools import combinations

import pytest

from momangle import complexes as cx
from momangle import whitehead as wh
from momangle.cli import main
from momangle.complexes import (SimplicialComplex, join, simplex,
                                simplex_boundary)
from momangle.exactalg import kernel_basis
from momangle.moment_angle import CellChain, lattice_supports, zk_bounds, zk_homology
from momangle.whitehead import (DEFINED_NONTRIVIAL, DEFINED_TRIVIAL,
                                DEFINED_UNKNOWN, UNDEFINED, bracket,
                                canonical_missing_faces, criterion_applies,
                                delta_w,
                                fillable_wedge_basis, hurewicz_chain, leaf,
                                nested_shape_status, parse_whitehead,
                                realises_sufficient, shifted_wedge_basis,
                                single_product_status)
from conftest import SUB5_EXPR
from oracles import (hochster_embed, random_complex, random_product_pair, random_shifted_complex,
                     reference_canonical_chain, reference_shifted_wedge_pairs,
                     reference_sits_in, reference_trivialising_join, relabelled, vertex_to_leaf)
from test_golden import CASES as GOLDEN_CASES, load_golden, run as run_golden
from test_zigzag import REALISE_SHAPES, _shape_text


def W(text):
    return parse_whitehead(text)


# -- expressions ---------------------------------------------------------------

def test_parse_and_normalise():
    w = W("[[1,2,3],4,5]")
    assert not w.is_leaf and len(w.children) == 3
    assert w.to_text() == "[[1,2,3],4,5]"
    # sub-brackets come first after normalisation
    assert W("[4,[1,2,3],5]").to_text() == "[[1,2,3],4,5]"
    deep = W("[1,2,[3,4,5],[6,13,[7,8,9],10],[11,12]]")
    assert deep.to_text() == "[[3,4,5],[[7,8,9],6,10,13],[11,12],1,2]"
    assert deep.leaves() == tuple(range(1, 14))


def test_parse_rejections():
    with pytest.raises(ValueError):
        W("[[6,13,[7,8,9],10]]")      # arity-1 outer bracket
    with pytest.raises(ValueError):
        W("[1,1]")                     # duplicate leaves
    with pytest.raises(cx.ParseError):
        W("[1,2")
    with pytest.raises(cx.ParseError):
        W("[1,2] tail")


def test_dimension_examples():
    assert W("[1,2,3]").dimension() == 5
    assert W("[[1,2,3],4,5]").dimension() == 8
    assert W("[[[3,4,5],1],2]").dimension() == 7
    with pytest.raises(ValueError):
        leaf(1).dimension()


def test_nested_recognition():
    assert W("[1,2,3]").is_nested()
    assert W("[[[3,4,5],1],2]").is_nested()
    assert not W("[[1,2],[3,4],5]").is_nested()


# -- canonical complexes ----------------------------------------------------------

def test_delta_w_single_bracket():
    for m in (2, 3, 4):
        dw = delta_w(bracket([leaf(i) for i in range(1, m + 1)]))
        assert dw.complex == simplex_boundary(m)
        assert dw.sphere == simplex_boundary(m)


def test_delta_w_figure_one(sub5):
    dw = delta_w(W("[[1,2,3],4,5]"))
    assert dw.complex == sub5
    assert dw.leaf_map == {i: i for i in range(1, 6)}
    # the top sphere drops the edge (4,5): join of the two boundaries
    assert dw.sphere == join(simplex_boundary(3), simplex_boundary(2))
    assert (4, 5) in dw.complex and (4, 5) not in dw.sphere


def test_delta_w_two_subproducts_no_leaves():
    # bd(bd(1,2), bd(3,4)) per the substitution definition: four points;
    # the top-sphere construction needs a leaf at that level
    dw = delta_w(W("[[1,2],[3,4]]"))
    assert set(dw.complex.facets) == {(1,), (2,), (3,), (4,)}
    assert dw.sphere is None


def test_delta_w_sphere_is_sphere():
    rng = random.Random(6)
    for text in ["[[1,2,3],4,5]", "[[[3,4,5],1],2]", "[[1,2],[3,4],5]",
                 "[[1,2],3]", "[[1,2,3],[4,5],6,7]"]:
        dw = delta_w(W(text))
        hom = cx.reduced_homology(dw.sphere)
        top = dw.sphere.dimension()
        assert {d: (h.rank, h.torsion) for d, h in hom.items()} == {top: (1, ())}


def sphere_fundamental_cycle(sphere):
    """Generator of the top reduced homology of a simplicial sphere."""
    C = cx.reduced_chain_complex(sphere.faces)
    top = max(C.degrees)
    cols = kernel_basis(C.differential(top))
    if len(cols) != 1:
        raise ValueError("complex is not a homology sphere in top degree")
    labels = C.basis[top]
    return {labels[i]: v for i, v in cols[0].items()}


def test_sphere_class_nonzero_in_delta_w():
    for text in ["[[1,2,3],4,5]", "[[1,2],[3,4],5]", "[[[3,4,5],1],2]"]:
        dw = delta_w(W(text))
        cyc = sphere_fundamental_cycle(dw.sphere)
        C = cx.reduced_chain_complex(dw.complex.faces)
        assert not C.class_of(dw.sphere.dimension(), cyc).is_boundary


def test_bracket_chain_matches_embedded_sphere_class():
    # on its canonical complex, the canonical chain of w and the embedded
    # fundamental cycle of the top sphere agree in homology up to sign
    for text in ["[1,2,3]", "[[1,2,3],4,5]", "[[1,2],[3,4],5]", "[[1,4,5],2]"]:
        w = W(text)
        dw = delta_w(w)
        back = vertex_to_leaf(dw)
        m = max(w.leaves())
        K = SimplicialComplex.from_facets(m, relabelled(dw.complex, back, m=m).facets)
        sphere = relabelled(dw.sphere, back, m=m)
        fund = sphere_fundamental_cycle(sphere)
        embedded = hochster_embed(K, w.leaves(), fund)
        hc = hurewicz_chain(w, K.m)
        assert embedded.degree == hc.degree
        same = zk_bounds(K, embedded - hc)
        flipped = zk_bounds(K, embedded + hc)
        assert same or flipped, text


# -- canonical chains ---------------------------------------------------------------

def test_hurewicz_pair():
    assert hurewicz_chain(W("[1,2]")) == CellChain.from_text("D1*S2 + S1*D2")


def test_hurewicz_table_rows():
    got = hurewicz_chain(W("[[1,4,5],2]"))
    expected = CellChain.from_text("D1*D4*S5 + D1*S4*D5 + S1*D4*D5").product(
        CellChain.from_text("S2"))
    assert got == expected or got == -expected

    got = hurewicz_chain(W("[[1,2,3],4,5]"))
    expected = CellChain.from_text("D1*D2*S3 + D1*S2*D3 + S1*D2*D3").product(
        CellChain.from_text("D4*S5 + S4*D5"))
    assert got == expected or got == -expected


def test_hurewicz_is_cycle_on_own_complex():
    rng = random.Random(12)
    for text in ["[1,2,3]", "[[1,4,5],2]", "[[1,2,3],4,5]", "[[1,2],[3,4],5]",
                 "[[[1,2,3],4],5,6]", "[[1,2],[3,4],[5,6],7]"]:
        w = W(text)
        chain = hurewicz_chain(w)
        assert chain.degree == w.dimension()
        assert not chain.boundary()
        dw = delta_w(w)
        K = relabelled(dw.complex, vertex_to_leaf(dw), m=max(w.leaves()))
        assert chain.supported_in(K)


def test_hurewicz_rejects_leafless_brackets():
    with pytest.raises(ValueError):
        hurewicz_chain(W("[[1,2],[3,4]]"))


# -- statuses ----------------------------------------------------------------------

def test_single_product_status_examples(sub5, two_points):
    assert single_product_status(sub5, (1, 2, 3)) == DEFINED_NONTRIVIAL
    assert single_product_status(sub5, (4, 5)) == DEFINED_TRIVIAL
    assert single_product_status(two_points, (1, 2)) == DEFINED_NONTRIVIAL
    edge = SimplicialComplex.from_facets(2, [(1, 2)])
    assert single_product_status(edge, (1, 2)) == DEFINED_TRIVIAL
    assert single_product_status(sub5, (1, 4, 5)) == DEFINED_NONTRIVIAL


def test_single_product_undefined():
    path = SimplicialComplex.from_facets(3, [(1, 2), (2, 3)])
    assert single_product_status(path, (1, 2, 3)) == UNDEFINED


def test_nested_shape_status_examples(sub5):
    w = W("[[1,2,3],4,5]")
    assert nested_shape_status(sub5, w) == DEFINED_NONTRIVIAL
    joinK = join(simplex_boundary(3), simplex(2))
    assert nested_shape_status(joinK, w) == DEFINED_TRIVIAL
    disjoint = SimplicialComplex.from_facets(5, [(1, 2), (1, 3), (2, 3)])
    assert nested_shape_status(disjoint, w) == UNDEFINED


def test_nested_shape_status_rejects_deep_nesting(sub5):
    with pytest.raises(ValueError):
        nested_shape_status(sub5, W("[[[1,2],3],4]"))


SHAPES = ("[[1,2],3]", "[[1,2],3,4]", "[[1,2,3],4]", "[[1,2],[3,4],5]",
          "[[1,2,3],[4,5],6]", "[[1,2],[3,4,5],6]")


def canonical_plus_faces(w, rng):
    """bd_Delta(w) on its own leaves, plus 0-4 random faces on the leaves."""
    dw = delta_w(w)
    n = len(w.leaves())
    K = relabelled(dw.complex, vertex_to_leaf(dw), m=n)
    extra = [rng.sample(range(1, n + 1), rng.randint(2, n)) for _ in range(rng.randint(0, 4))]
    return SimplicialComplex.from_facets(n, list(K.facets) + extra)


@pytest.mark.parametrize("text", SHAPES)
def test_nested_status_against_the_canonical_class(text, tmp_path, capsys):
    """Inside the criterion's domain the status is the class's
    boundary-ness, with the witness check on; outside it the status never
    contradicts the class or the trivialising join, and the CLI exits 0."""
    w = W(text)
    rng = random.Random(1)
    seen = set()
    for k in range(40):
        K = canonical_plus_faces(w, rng)
        bounds = zk_bounds(K, hurewicz_chain(w))
        status = nested_shape_status(K, w)
        # w is defined on K, so each inner leaf set is a face or a missing face
        inside = all(c.leaves() not in K for c in w.bracket_children())
        assert criterion_applies(K, w) == inside
        seen.add(inside)
        if inside:
            assert status == (DEFINED_TRIVIAL if bounds else DEFINED_NONTRIVIAL), K
        else:
            joined = reference_sits_in(*reference_trivialising_join(w), K)
            expected = (DEFINED_NONTRIVIAL if not bounds
                        else DEFINED_TRIVIAL if joined else DEFINED_UNKNOWN)
            assert status == expected, K
            path = tmp_path / f"k{k}.json"
            path.write_text(json.dumps(K.to_json_dict()))
            assert main(["status", "--complex", str(path), "--w", text]) == 0
            assert json.loads(capsys.readouterr().out)["status"] == status
    assert seen == {True, False}


def test_realises_on_canonical_complex():
    w = W("[[1,2],[3,4],5]")
    dw = delta_w(w)
    K = relabelled(dw.complex, vertex_to_leaf(dw), m=5)
    rep = realises_sufficient(K, w)
    assert rep.defined == "yes" and rep.nontrivial == "yes"
    assert rep.witness is not None


def test_realises_on_full_simplex():
    rep = realises_sufficient(simplex(5), W("[[1,2],[3,4],5]"))
    assert rep.nontrivial == "no"


def test_realises_consistent_with_nested_status(sub5):
    rep = realises_sufficient(sub5, W("[[1,2,3],4,5]"))
    assert (rep.defined, rep.nontrivial) == ("yes", "yes")


# -- the missing-face rule ------------------------------------------------------------

def random_expression(rng, labels):
    """A random bracket on the labels (at least two): each argument is a
    leaf or, while at least two labels are left, a random sub-bracket."""
    labels = rng.sample(labels, len(labels))
    while True:
        args, rest = [], list(labels)
        while rest:
            k = rng.randint(2, len(rest)) if len(rest) > 1 and rng.random() < 0.4 else 1
            part, rest = rest[:k], rest[k:]
            args.append(leaf(part[0]) if k == 1 else random_expression(rng, part))
        if len(args) > 1:
            return bracket(args)


def has_leafless_bracket(w):
    return not w.is_leaf and (not w.leaf_children()
                              or any(map(has_leafless_bracket, w.bracket_children())))


def test_canonical_missing_faces_closed_form():
    """MF(bd_Delta(w)) on the leaves equals the closed form."""
    rng = random.Random(21)
    exprs = [W(t) for t in ("[1,2]", "[[1,2],[3,4]]", "[[1,2],[3,4],[5,6]]",
                            "[[[1,2],3],[4,5]]", "[[1,2,3],4,5]")]
    exprs += [random_expression(rng, rng.sample(range(1, 11), rng.randint(2, 8)))
              for _ in range(300)]
    leafless = 0
    for w in exprs:
        dw = delta_w(w)
        back = vertex_to_leaf(dw)
        assert sorted(back) == list(range(1, dw.complex.m + 1))
        assert sorted(back.values()) == list(w.leaves())
        built = {cx.face_mask(back[v] for v in f) for f in dw.complex.missing_faces()}
        closed = canonical_missing_faces(w)
        assert len(closed) == len(set(closed)) and set(closed) == built, w.to_text()
        leafless += has_leafless_bracket(w)
    assert leafless >= 20


def closure(faces):
    return {sub for f in faces for k in range(len(f) + 1) for sub in combinations(sorted(f), k)}


def rule_inputs(rng, w, dw):
    """K around bd_Delta(w) on w's leaves: plus or minus random faces, with
    ghost vertices and vertices above the leaves, or a random complex, with
    m sometimes below the largest leaf."""
    top = max(w.leaves())
    if rng.random() < 0.3:
        K = random_complex(rng.randint(2, top + 1), rng)
        faces = set(K.faces)
        m = K.m
    else:
        m = top + rng.randint(0, 2)
        back = vertex_to_leaf(dw)
        faces = {tuple(sorted(back[v] for v in f)) for f in dw.complex.faces}
        for _ in range(rng.randint(0, 3)):
            if rng.random() < 0.5:
                faces |= closure([rng.sample(range(1, m + 1), rng.randint(1, min(m, 4)))])
            else:
                gone = rng.choice(sorted(faces - {()}))
                faces = {f for f in faces if not set(gone) <= set(f)}
    if rng.random() < 0.2:
        ghost = rng.randint(1, m)
        faces = {f for f in faces if ghost not in f}
    return SimplicialComplex(m, faces)


def test_sits_in_against_the_built_complexes():
    """The missing-face test decides both containments as building
    bd_Delta(w) and the trivialising join and embedding them does, and the
    criterion holds exactly when every leaf is a vertex of K and every inner
    leaf set is one of K's missing faces."""
    rng = random.Random(22)
    exprs = [random_expression(rng, list(range(1, rng.randint(3, 6) + 1)))
             for _ in range(40)]
    exprs += [W(t) for t in SHAPES]
    answers = {"defined": set(), "trivial": set(), "criterion": set()}
    ghost_leaf = leaf_above_m = checked = 0
    while checked < 3000:
        for w in exprs:
            dw = delta_w(w)
            special = all(c.is_single() for c in w.bracket_children())
            for _ in range(2):
                K = rule_inputs(rng, w, dw)
                leaf_above_m += max(w.leaves()) > K.m
                ghost_leaf += any(v <= K.m and (v,) not in K for v in w.leaves())
                defined, joined, criterion = wh._containment(K, w)
                assert defined == reference_sits_in(dw.complex, dw.leaf_map, K), (w, K)
                answers["defined"].add(defined)
                if special:
                    assert joined == reference_sits_in(*reference_trivialising_join(w), K)
                    answers["trivial"].add(joined)
                inner_missing = max(w.leaves()) <= K.m and all(
                    c.leaves() in K.missing_faces() for c in w.bracket_children())
                assert criterion == inner_missing, (w, K)
                answers["criterion"].add(criterion)
                checked += 1
    assert answers == dict.fromkeys(answers, {True, False})
    assert ghost_leaf > 100 and leaf_above_m > 100


def test_status_and_realises_build_no_complex(monkeypatch):
    """On the golden inputs `status` and `realises` decide from missing faces
    alone: neither bd_Delta(w) is built nor a complex embedded."""
    calls = []

    def spy(name):
        def refuse(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called")
        return refuse
    monkeypatch.setattr(wh, "delta_w", spy("delta_w"))
    monkeypatch.setattr(cx, "is_subcomplex", spy("is_subcomplex"))
    argvs = [a for a in GOLDEN_CASES if a[0] in ("status", "realises")]
    assert argvs
    for argv in argvs:
        assert main(argv) == 0, argv
    assert calls == []


@pytest.mark.parametrize("argv", [a for a in GOLDEN_CASES if a[0] in ("status", "realises")],
                         ids=lambda a: " ".join(a[:1] + a[2:]))
def test_one_missing_face_scan_per_leaf_set(argv, capsys):
    """`status`, `realises` and `taylor-cycle` on one (K, w) scan K's missing
    faces among w's leaves once (`_containment`, one miss) and decide
    "defined", "trivial" and the criterion from that one answer, with the
    golden report unchanged."""
    wh._containment.cache_clear()
    assert run_golden(argv) == load_golden()[tuple(argv)]
    rest = argv[argv.index("--complex"):]
    for verb in ("status", "realises", "taylor-cycle"):
        main([verb] + rest)
    capsys.readouterr()
    info = wh._containment.cache_info()
    assert info.misses == 1 and info.hits >= 3, info


def test_undefined_above_the_missing_face_bound(tmp_path, capsys):
    """The rule enumerates missing faces among the leaves only, never all of
    K's, so an undefined product on m > 24 is answered, not refused."""
    path = tmp_path / "k.json"
    path.write_text(json.dumps({"m": 26, "facets": [[5, 6]]}))
    common = ["--complex", str(path), "--w", "[[1,2,3],4]", "--max-vertices", "30"]
    assert main(["status"] + common) == 0
    assert json.loads(capsys.readouterr().out)["status"] == UNDEFINED
    assert main(["realises"] + common) == 0
    rep = json.loads(capsys.readouterr().out)
    assert (rep["defined"], rep["nontrivial"]) == ("no", "no")


# -- wedge bases ---------------------------------------------------------------------

def test_shifted_wedge_basis_simplex_boundary():
    for m in (2, 3, 4):
        basis = shifted_wedge_basis(simplex_boundary(m))
        assert basis.is_basis
        assert len(basis.entries) == 1
        entry = basis.entries[0]
        assert entry.subset == tuple(range(1, m + 1))
        assert entry.missing_face == tuple(range(1, m + 1))


def test_shifted_wedge_basis_one_skeleton():
    K = SimplicialComplex.from_facets(
        4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    basis = shifted_wedge_basis(K)
    assert basis.is_basis
    total_rank = sum(h.rank for d, h in zk_homology(K).items() if d > 0)
    assert len(basis.entries) == total_rank


def test_shifted_wedge_basis_random():
    rng = random.Random(77)
    for _ in range(8):
        K = random_shifted_complex(rng.randint(3, 6), rng)
        basis = shifted_wedge_basis(K, order=tuple(range(1, K.m + 1)))
        assert basis.is_basis, basis.details


def test_shifted_wedge_basis_pairs_against_subset_scan():
    """The entries read off the missing faces are the (J, I) pairs, in
    order, of a scan of every vertex subset, on shifted complexes relabelled
    so their witness is rarely the natural order."""
    rng = random.Random(1904)
    for _ in range(300):
        m = rng.randint(2, 8)
        perm = rng.sample(range(1, m + 1), m)
        K = relabelled(random_shifted_complex(m, rng), dict(enumerate(perm, 1)), m=m)
        basis = shifted_wedge_basis(K)
        expected = reference_shifted_wedge_pairs(K, cx.is_shifted(K).witnesses[0])
        assert [(e.subset, e.missing_face) for e in basis.entries] == expected, K
        assert basis.is_basis, basis.details


def test_shifted_rejects_nonshifted(rp2):
    with pytest.raises(ValueError):
        shifted_wedge_basis(rp2)


def test_fillable_agrees_with_shifted():
    rng = random.Random(5)
    for _ in range(5):
        K = random_shifted_complex(rng.randint(3, 5), rng)
        shifted = shifted_wedge_basis(K, order=tuple(range(1, K.m + 1)))
        fillings = {}
        for e in shifted.entries:
            fillings.setdefault(e.subset, []).append(e.missing_face)
        fb = fillable_wedge_basis(K, fillings)
        assert fb.is_basis
        assert {(e.subset, e.missing_face) for e in fb.entries} == \
            {(e.subset, e.missing_face) for e in shifted.entries}


def test_fillable_triangle_boundary():
    fb = fillable_wedge_basis(simplex_boundary(3), {(1, 2, 3): [(1, 2, 3)]})
    assert fb.is_basis and len(fb.entries) == 1


def test_fillable_rejects_nonacyclic_filling(four_cycle):
    # the diagonals are 1-dimensional missing faces: no filling of the full
    # subset is acyclic, so the four-cycle is not totally fillable
    with pytest.raises(ValueError):
        fillable_wedge_basis(four_cycle,
                             {(1, 2, 3, 4): [(1, 3)],
                              (1, 3): [(1, 3)], (2, 4): [(2, 4)]})


def test_a_memoised_chain_still_checks_its_leaves():
    w = W("[[1,2],3]")
    assert hurewicz_chain(w) is hurewicz_chain(w, 3)
    with pytest.raises(ValueError, match=r"leaves \[3\] outside 1..2"):
        hurewicz_chain(w, 2)


# (K, w) pairs on which neither certificate decides the canonical class: a
# Z/2 class on an RP^2 with a coned triangle (A), a free class outside the
# paper's criterion (B) and a class that vanishes although no filling of
# the canonical shape exists (C)
ROW_A = ({"m": 7, "facets": [[1, 2, 3], [1, 2, 4], [1, 4, 5], [1, 5, 6], [2, 3, 5], [2, 4, 6],
                             [2, 5, 6], [3, 4, 5], [3, 4, 6], [4, 5, 7], [1, 3, 6, 7]]},
         "[[1,3],[[4,6],2],5]")
ROW_B = ({"m": 7, "facets": [[1, 3, 6], [1, 4, 6], [2, 3, 5], [2, 3, 7], [2, 4, 6], [2, 4, 7],
                             [2, 5, 6], [3, 4, 5], [3, 4, 6], [3, 6, 7], [4, 5, 7], [5, 6, 7]]},
         "[[3,6],[4,5],2]")
ROW_C = ({"m": 5, "facets": [[2, 3], [3, 5], [1, 2, 4]]}, "[[[[1,5],3],2],4]")


def row_complex(row):
    return SimplicialComplex.from_json_dict(row[0])


def fallback_spy(monkeypatch):
    """The degrees of every cycle `_canonical_bounds` hands to its fallback,
    `_zk_cycle_bounds`, from here on, with the verdict memo emptied."""
    calls = []
    raw = wh._zk_cycle_bounds
    monkeypatch.setattr(wh, "_zk_cycle_bounds", lambda K, z: calls.append(z.degree) or raw(K, z))
    wh._canonical_bounds.cache_clear()
    return calls


def test_certificates_decide_with_no_class(capsys, monkeypatch):
    """On bd(bd(1,2,3), 4, 5) the canonical cycle of [[1,2,3],4,5] has a
    term on a facet of K_S: `status` and `realises` answer with no
    fallback decision."""
    calls = fallback_spy(monkeypatch)
    common = ["--complex", SUB5_EXPR, "--w", "[[1,2,3],4,5]"]
    assert main(["status"] + common) == 0
    assert json.loads(capsys.readouterr().out)["status"] == DEFINED_NONTRIVIAL
    assert main(["realises"] + common) == 0
    assert json.loads(capsys.readouterr().out)["nontrivial"] == "yes"
    assert calls == []


@pytest.mark.parametrize("row, status, realised", [
    (ROW_A, (1, "expected the shape [w_1,...,w_q, leaves] with single-product w_j"),
     ("yes", "yes", "-D1*S2*S3*D4*S5*S6 + D1*S2*S3*S4*S5*D6 + S1*S2*D3*D4*S5*S6 "
      "- S1*S2*D3*S4*S5*D6", [])),
    (ROW_B, (0, DEFINED_NONTRIVIAL, [wh.OUTSIDE_CRITERION]),
     ("yes", "yes", "-S2*D3*D4*S5*S6 - S2*D3*S4*D5*S6 + S2*S3*D4*S5*D6 + S2*S3*S4*D5*D6", [])),
    (ROW_C, (1, "expected the shape [w_1,...,w_q, leaves] with single-product w_j"),
     ("yes", "unknown", None, ["canonical class vanishes"]))], ids=["A", "B", "C"])
def test_fallback_rows(row, status, realised, capsys, monkeypatch, tmp_path):
    """Three (K, w) that neither certificate decides keep their answers,
    and the star quotients decide them once per process: `status` then
    `realises` make one fallback decision between them."""
    K, w = row_complex(row), W(row[1])
    z = hurewicz_chain(w, K.m)
    assert wh._cocycle_cell(K, z) is None and wh._trivialising_filling(K, w) is None
    calls = fallback_spy(monkeypatch)
    path = tmp_path / "k.json"
    path.write_text(json.dumps(row[0]))
    common = ["--complex", str(path), "--w", row[1]]
    code = main(["status"] + common)
    out, err = capsys.readouterr()
    if code == 0:
        report = json.loads(out)
        assert (code, report["status"], report["notes"]) == status
    else:
        assert (code, err.strip()) == (status[0], "error: " + status[1])
    assert main(["realises"] + common) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["defined"], report["nontrivial"], report["witness"],
            report["notes"]) == realised
    assert len(calls) == 1


def test_canonical_verdict_against_the_class():
    """The verdict against `zk_bounds` on 240 seeded (K, w) whose canonical
    cycle lies in Z_K, some of them on an RP^2, and on the three fallback
    rows; a cycle with a cell outside Z_K is refused as `zk_bounds`
    refuses it.  Each of the three ways to decide occurs: a
    one-cell cocycle, the trivialising filling, and the star quotients,
    which answer both ways."""
    rng = random.Random(36)
    pairs = [(row_complex(row), W(row[1])) for row in (ROW_A, ROW_B, ROW_C)]
    refused = 0
    while len(pairs) < 243:
        K, w = random_product_pair(rng)
        z = hurewicz_chain(w, K.m)
        if z.supported_in(K):
            pairs.append((K, w))
            continue
        refused += 1
        with pytest.raises(ValueError, match="chain has a cell outside Z_K"):
            wh._canonical_bounds(K, w)
    ways = {}
    for K, w in pairs:
        z = hurewicz_chain(w, K.m)
        bounds = zk_bounds(K, z)
        assert wh._canonical_bounds(K, w) == bounds, (K.facets, w)
        if wh._cocycle_cell(K, z):
            way = "cocycle"
        elif wh._trivialising_filling(K, w):
            way = "filling"
        else:
            way = "fallback, bounds" if bounds else "fallback, nonzero"
        ways[way] = ways.get(way, 0) + 1
    assert refused and len(ways) == 4, ways


def test_canonical_cycle_is_checked_once_per_bracket(monkeypatch):
    """w's canonical chain (`_canonical_chain(w)`) depends on w alone, so
    its cycle test (`CellChain.boundary` on it) runs once per w, in that
    memo, and `_canonical_bounds` on one w over several complexes tests only
    that z lies in each Z_K.  A canonical chain that is no cycle is refused
    with `zk_bounds`' message."""
    w = W("[[1,2],3,4]")
    complexes = [cx.parse_complex(text) for text in (
        "bd(simplex(1,2,3,4))", SUB5_EXPR, "subst(bd(simplex(1,2,3)); bd(simplex(1,2)), pt, pt)")]
    checked = []
    boundary = CellChain.boundary
    monkeypatch.setattr(CellChain, "boundary", lambda c: checked.append(c) or boundary(c))
    memos = (wh._canonical_chain, wh._canonical_bounds)
    for memo in memos:
        memo.cache_clear()
    try:
        for K in complexes:
            wh._canonical_bounds(K, w)
        z = wh._canonical_chain(w)
        assert sum(c is z for c in checked) == 1
        for memo in memos:
            memo.cache_clear()
        monkeypatch.setattr(wh, "_leaf_factor",
                            lambda L: CellChain({(L & -L, L & (L - 1)): 1}))
        with pytest.raises(ValueError, match="chain is not a cycle"):
            wh._canonical_bounds(complexes[0], W("[1,2,3,4]"))
    finally:
        for memo in memos:
            memo.cache_clear()


@pytest.mark.parametrize("row", [ROW_A, ROW_B, ROW_C], ids=["A", "B", "C"])
def test_fallback_checks_the_cycle_once(row, monkeypatch):
    """On the three fallback rows the star quotients decide z with no check
    made again: its boundary is taken once per w, in `_canonical_chain`,
    and its Z_K support once, in `_canonical_bounds`."""
    K, w = row_complex(row), W(row[1])
    checked, supported = [], []
    boundary, supported_in = CellChain.boundary, CellChain.supported_in
    monkeypatch.setattr(CellChain, "boundary", lambda c: checked.append(c) or boundary(c))
    monkeypatch.setattr(CellChain, "supported_in",
                        lambda c, K: supported.append(c) or supported_in(c, K))
    memos = (wh._canonical_chain, wh._canonical_bounds)
    for memo in memos:
        memo.cache_clear()
    try:
        assert wh._canonical_bounds(K, w) == (row is ROW_C)
        z = wh._canonical_chain(w)
        assert sum(c is z for c in checked) == 1
        assert sum(c is z for c in supported) == 1
    finally:
        for memo in memos:
            memo.cache_clear()


def _general_bracket(rng, labels):
    """A random bracket on the labels: any split into two or more parts, a
    part of one label a leaf and a larger part a bracket of its own, so that
    brackets with sub-products only occur too."""
    cuts = sorted(rng.sample(range(1, len(labels)), rng.randint(1, len(labels) - 1)))
    parts = [labels[a:b] for a, b in zip([0] + cuts, cuts + [len(labels)])]
    return bracket([leaf(p[0]) if len(p) == 1 else _general_bracket(rng, p) for p in parts])


def _canonical_outcome(build, w):
    """The chain `build(w)` and its text, or the type and message it
    raises."""
    try:
        chain = build(w)
    except (ValueError, AssertionError) as exc:
        return type(exc).__name__, str(exc)
    return chain, chain.to_text()


def test_canonical_chain_on_masks_matches_the_labelled_product():
    """`hurewicz_chain`, built on masks, equals the labelled build by
    `CellChain.product` (`reference_canonical_chain`), terms and text, or
    refuses with the same message: on the bracket shapes of the realise
    job list, on `[[1,2,3],[4,5]]`, and on 300 seeded brackets of up to 9
    leaves, of every shape, on labels up to 40."""
    shapes = [_shape_text(shape, {v: v for v in range(1, 10)}) for shape in REALISE_SHAPES]
    for text in shapes + ["[[1,2,3],[4,5]]"]:
        w = W(text)
        assert _canonical_outcome(hurewicz_chain, w) == \
            _canonical_outcome(reference_canonical_chain, w), text
    with pytest.raises(ValueError, match="sub-products only have no canonical cellular chain"):
        hurewicz_chain(W("[[1,2,3],[4,5]]"))
    rng = random.Random(29)
    outcomes = {"chain": 0, "refused": 0, "two-digit": 0}
    for _ in range(300):
        labels = rng.sample(range(1, 41), rng.randint(2, 9))
        w = _general_bracket(rng, labels)
        got = _canonical_outcome(hurewicz_chain, w)
        assert got == _canonical_outcome(reference_canonical_chain, w), w
        outcomes["refused" if isinstance(got[0], str) else "chain"] += 1
        outcomes["two-digit"] += max(labels) > 9 and not isinstance(got[0], str)
    assert min(outcomes.values()) > 25, outcomes


def test_classes_build_only_star_quotients(monkeypatch):
    """Deciding whether the golden inputs' Hurewicz chains bound builds the
    star cells of each support the chain touches, never a larger block."""
    from momangle import moment_angle
    pairs = sorted({(a[a.index("--complex") + 1], a[a.index("--w") + 1])
                    for a in GOLDEN_CASES if "--w" in a})
    cases = []
    for text, w in pairs:
        K = cx.parse_complex(text)
        chain = hurewicz_chain(W(w), K.m)
        if chain.supported_in(K):
            supports = sorted({J | I for J, I in chain.terms})
            sizes = [len(moment_angle._star_cells(K, S)) for S in supports]
            cases.append((K, chain, sizes))
    assert len(cases) >= 5
    built = []
    raw = moment_angle._star_cells

    def spy(K, smask):
        words = raw(K, smask)
        built.append(len(words))
        return words
    monkeypatch.setattr(moment_angle, "_star_cells", spy)
    for K, chain, sizes in cases:
        built.clear()
        zk_bounds(K, chain)
        assert built == sizes, (K, chain)


BD3_7 = "bd(bd(bd(simplex(1,2,3,4,5,6,7))))"


def star_cells_spy(monkeypatch):
    """The supports of every `_star_cells` call the wedge verdict makes."""
    built = []
    from momangle import moment_angle
    raw = moment_angle._star_cells
    monkeypatch.setattr(moment_angle, "_star_cells",
                        lambda K, smask: built.append(smask) or raw(K, smask))
    return built


def test_wedge_basis_builds_one_quotient_per_support(monkeypatch):
    """The verdict builds each lattice support's star cells once and reads
    them for the per-support groups and for the [B | Z] of every entry
    subset: on bd(bd(bd(simplex(1,...,7)))) its 71 entries touch 29 of the
    30 supports, and `_star_cells` runs 30 times, where building a quotient
    per entry subset beside the table ran it 59 times."""
    built = star_cells_spy(monkeypatch)
    K = cx.parse_complex(BD3_7)
    basis = shifted_wedge_basis(K)
    assert basis.is_basis and len(basis.entries) == 71
    assert sorted(built) == sorted(lattice_supports(K))
    assert len(built) == 30
    assert {cx.face_mask(e.subset) for e in basis.entries} < set(built)
    assert len({e.subset for e in basis.entries}) == 29


# sha256 of the bd(bd(bd(simplex(1,...,7)))) wedge-basis report without its
# elapsed_s, as JSON with sorted keys, taken when each entry was classed in
# a memoised star quotient by Smith forms with transforms
BD3_7_REPORT = "dfc108566f5841a89154e5b9c15c20e9f5c535bc1da8f970a2d09e49d376cf20"


def report_digest(report):
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def test_wedge_basis_report_is_pinned_with_one_star_cells_pass(monkeypatch, capsys):
    """With and without an order, the report is the one the class
    coordinates gave, and the star cells of each support are built once.
    Every order shifts bd(bd(bd(simplex(1,...,7)))); naming one skips the
    search over all 7! orders."""
    built = star_cells_spy(monkeypatch)
    for order in ([], ["--order", "1,2,3,4,5,6,7"]):
        built.clear()
        assert main(["wedge-basis", "--complex", BD3_7] + order) == 0
        report = json.loads(capsys.readouterr().out)
        report.pop("elapsed_s")
        assert report["is_basis"] and report_digest(report) == BD3_7_REPORT
        assert len(built) == len(set(built)) == 30


def test_wedge_basis_names_the_factors_past_the_image():
    """One entry's chain doubled: its block's [B | Z] has the factors of B
    and then [2], and only the factors past B's count are printed, as the
    class coordinates printed them.  On bd(bd(bd(simplex(1,...,7)))) B is
    zero in every entry's block; on two disjoint edges {1,3} and {4,5}
    beside the point 2, H~_0 of the edges is Z in degree 5 of the block of
    {1,3,4,5}, where B has one factor, and vertex 1 less vertex 4 spans
    it."""
    K = cx.parse_complex(BD3_7)
    entries = list(shifted_wedge_basis(K).entries)
    at = next(i for i, e in enumerate(entries) if e.subset == (1, 2, 3, 4, 5))
    entries[at] = replace(entries[at], chain=entries[at].chain.scaled(2))
    verdict = wh._basis_verdict(K, entries)
    assert not verdict.is_basis
    assert verdict.details == ("subset [1, 2, 3, 4, 5], degree 9: invariant factors [2]",)
    K = SimplicialComplex.from_facets(5, [(1, 3), (2,), (4, 5)])
    J = (1, 3, 4, 5)
    z = hochster_embed(K, J, {(1,): 1, (4,): -1})
    where = "subset [1, 3, 4, 5], degree 5"
    for k, lines in ((1, []), (2, [f"{where}: invariant factors [2]"]),
                     (3, [f"{where}: invariant factors [3]"])):
        details = wh._basis_verdict(K, [wh.WedgeEntry(J, (), None, z.scaled(k))]).details
        assert [line for line in details if line.startswith(where)] == lines, k


def row_reports(row, tmp_path, capsys):
    """(exit code, report without its elapsed_s, stderr) of `status` and
    then `realises` on a fallback row read from a complex file, with the
    verdict memo emptied first, so that the fallback decides the row once
    between them."""
    path = tmp_path / "k.json"
    path.write_text(json.dumps(row[0]))
    common = ["--complex", str(path), "--w", row[1]]
    wh._canonical_bounds.cache_clear()
    reports = []
    for verb in ("status", "realises"):
        code = main([verb] + common)
        out, err = capsys.readouterr()
        report = json.loads(out) if out else None
        if report is not None:
            report.pop("elapsed_s")
        reports.append((code, report, err))
    return reports


def test_no_verb_reaches_the_transforms(monkeypatch, tmp_path, capsys):
    """Every golden argv, the three fallback rows through `status` and
    `realises`, and `wedge-basis` on bd(bd(bd(simplex(1,...,7)))) give
    their reports with `ChainComplex.class_of` and the Smith form with
    transforms made to raise."""
    from momangle import exactalg
    rows = (ROW_A, ROW_B, ROW_C)
    unguarded = [row_reports(row, tmp_path, capsys) for row in rows]

    def refuse(*args, **kwargs):
        raise AssertionError("a verb reached class coordinates")
    snf = exactalg.smith_normal_form

    def without_transforms(A, transforms=True):
        if transforms:
            refuse()
        return snf(A, transforms)
    monkeypatch.setattr(exactalg.ChainComplex, "class_of", refuse)
    monkeypatch.setattr(exactalg, "smith_normal_form", without_transforms)
    wh._canonical_bounds.cache_clear()
    golden = load_golden()
    for argv in GOLDEN_CASES:
        assert run_golden(argv) == golden[tuple(argv)], argv
    calls = fallback_spy(monkeypatch)
    for row, want in zip(rows, unguarded):
        calls.clear()
        assert row_reports(row, tmp_path, capsys) == want
        assert len(calls) == 1
    report = run_golden(["wedge-basis", "--complex", BD3_7])["report"]
    assert report_digest(report) == BD3_7_REPORT
