"""The benchmark's three workloads: seeded job lists and their checks.

A job is a list of CLI calls timed together.  Each workload has a `make`
that builds the inputs from the seed with the benchmark's own code
(oracle.py), writes each complex to a JSON file and returns the jobs, and a
`check` that compares a job's reports with answers computed apart from
momangle and returns the problems it finds.

Jobs are drawn in a fixed cycle of strata (vertex count, size of the
complex, shape of the product), so runs on different seeds carry nearly the
same work.  No complex occurs twice in a run, so no job meets a cache that
an earlier job filled.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from math import comb

import oracle

# Six-vertex real projective plane; a full subcomplex on it gives Z/2 torsion.
RP2 = [(1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
       (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6)]


@dataclass
class Job:
    argvs: list                       # one argv per CLI call
    m: int
    faces: frozenset
    w: tuple = None                   # the product a realise job investigates


def _write(path, m, faces):
    with open(path, "w") as fh:
        json.dump({"m": m, "facets": [list(f) for f in oracle.maximal(list(faces)) if f]}, fh)


def _draw(seen, make, accept):
    """First complex from `make` that `accept` takes and the run has not seen."""
    while True:
        faces = make()
        if faces not in seen and accept(faces):
            seen.add(faces)
            return faces


def _random_complex(rng, m):
    facets = [rng.sample(range(1, m + 1), rng.randint(2, m - 2))
              for _ in range(rng.randint(2, 10))]
    return oracle.closure(m, facets)


def _rp2_complex(rng, m, cones):
    """RP^2 on six random vertices as a full subcomplex; each other vertex
    set in a cone is joined to a random face of it, which keeps it full."""
    verts = rng.sample(range(1, m + 1), m)
    facets = [[verts[v - 1] for v in f] for f in RP2]
    rp2_faces = sorted(oracle.closure(6, RP2))
    for _ in range(cones):
        outside = rng.sample(verts[6:], rng.randint(1, m - 6))
        facets.append(outside + [verts[v - 1] for v in rng.choice(rp2_faces)])
    return oracle.closure(m, facets)


def _generator_names(m, faces):
    return ["".join(map(str, f)) for f in oracle.missing_faces(m, faces)]


def _homology(rep, positive=False):
    return {int(d): (g["rank"], tuple(g["torsion"])) for d, g in rep["homology"].items()
            if int(d) > 0 or not positive}


# -- cellular ------------------------------------------------------------------

# (vertices, cells from, cells below, contains RP^2), one job each.  The time
# of a `homology` job grows with the number of cells of Z_K; the strata
# spread it evenly, so that no stratum boundary sits at the 90th percentile.
CELLULAR_CYCLE = ([(7, 800 + 50 * k, 850 + 50 * k, False) for k in range(0, 18, 2)]
                  + [(7, 1000, 1600, True), (8, 1700, 2000, False)]
                  + [(7, 800 + 50 * k, 850 + 50 * k, False) for k in range(1, 18, 2)])


def make_cellular(rng, count, inputs):
    seen = set()
    jobs = []
    for i in range(count):
        m, lo, hi, rp2 = CELLULAR_CYCLE[i % len(CELLULAR_CYCLE)]
        make = ((lambda: _rp2_complex(rng, m, rng.randint(1, 4))) if rp2
                else (lambda: _random_complex(rng, m)))
        faces = _draw(seen, make, lambda f: lo <= oracle.cells(m, f) < hi)
        path = f"{inputs}/{i}.json"
        _write(path, m, faces)
        jobs.append(Job([["homology", "--complex", path]], m, faces))
    return jobs


def check_cellular(job, reports, hochster):
    (rep,) = reports
    want = hochster.zk_homology(job.m, job.faces)
    got = _homology(rep)
    problems = []
    if got != want:
        problems.append(f"homology {got} != Hochster {want}")
    if {int(d): r for d, r in rep["ranks"].items()} != {d: g[0] for d, g in got.items()}:
        problems.append("ranks disagree with homology")
    if sum((-1) ** d * r for d, (r, _) in got.items()) != 0:
        problems.append("Euler characteristic of Z_K is not 0")
    if rep["generator_order"] != _generator_names(job.m, job.faces):
        problems.append("generator_order is not the missing faces in (cardinality, lex)")
    return problems


# -- taylor ----------------------------------------------------------------------

# (vertices, missing faces, contains RP^2), one job each.  The time of a
# `taylor` job grows as 2^|MF|; the counts put the median inside the (7, 9)
# stratum and the 90th percentile inside the RP^2 cones on 10 missing faces.
TAYLOR_CYCLE = [(6, 8, False), (7, 9, False), (8, 8, False), (7, 8, False),
                (6, 9, False), (7, 10, True), (6, 8, False), (7, 9, False),
                (8, 9, False), (6, 10, False), (7, 8, False), (6, 9, False),
                (7, 11, True), (6, 8, False), (7, 9, False), (8, 8, False),
                (7, 8, False), (6, 9, False), (7, 10, True), (8, 10, False)]


MF_SIZES = (2, 3, 3, 3, 3)


def _complex_by_missing_faces(rng, m, count):
    """The complex whose missing faces are a random antichain of `count`
    vertex sets, sized 2, 3, 3, 3, 3, 2, ... in turn: the sets that contain
    none of them.  The fixed sizes keep the cost within a stratum even."""
    for _ in range(1000):
        mf = []
        for _ in range(50 * count):
            size = MF_SIZES[len(mf) % len(MF_SIZES)]
            cand = frozenset(rng.sample(range(1, m + 1), size))
            if all(not (cand <= f or f <= cand) for f in mf):
                mf.append(cand)
                if len(mf) == count:
                    return frozenset(f for k in range(m + 1)
                                     for f in combinations(range(1, m + 1), k)
                                     if not any(g <= set(f) for g in mf))
    raise RuntimeError(f"no antichain of {count} missing faces on {m} vertices")


def _rp2_cone(rng, removed):
    """RP^2 and a seventh vertex joined to RP^2 less `removed` triangles."""
    verts = rng.sample(range(1, 8), 7)
    rp2 = [tuple(verts[v - 1] for v in f) for f in RP2]
    link = rng.sample(rp2, len(rp2) - removed)
    return oracle.closure(7, rp2 + [f + (verts[6],) for f in link])


def make_taylor(rng, count, inputs):
    seen = set()
    jobs = []
    for i in range(count):
        m, nmf, rp2 = TAYLOR_CYCLE[i % len(TAYLOR_CYCLE)]
        make = ((lambda: _rp2_cone(rng, nmf - 10)) if rp2
                else (lambda: _complex_by_missing_faces(rng, m, nmf)))
        faces = _draw(seen, make, lambda f: len(oracle.missing_faces(m, f)) == nmf)
        path = f"{inputs}/{i}.json"
        _write(path, m, faces)
        jobs.append(Job([["taylor", "--complex", path]], m, faces))
    return jobs


def check_taylor(job, reports, hochster):
    (rep,) = reports
    mf = oracle.missing_faces(job.m, job.faces)
    problems = []
    if rep["ranks_by_index"] != [comb(len(mf), s) for s in range(len(mf) + 1)]:
        problems.append(f"ranks_by_index {rep['ranks_by_index']} != binomial({len(mf)}, s)")
    want = {d: h for d, h in hochster.zk_homology(job.m, job.faces).items() if d > 0}
    got = _homology(rep, positive=True)
    if got != want:
        problems.append(f"homology {got} != Hochster {want}")
    if rep["generator_order"] != _generator_names(job.m, job.faces):
        problems.append("generator_order is not the missing faces in (cardinality, lex)")
    return problems


# -- realise ---------------------------------------------------------------------
#
# Shapes are templates whose leaves are numbered 1..L; `_place` puts them on
# random vertices.  Single and special shapes have exact criteria (status,
# trivialising join).  Nested and general shapes run only where bd_Delta(w)
# is the full subcomplex on the leaves: the canonical class lives in that
# multidegree, where the paper's theorem says bd_Delta(w) realises w.

SINGLE, SPECIAL, NESTED, GENERAL = "single", "special", "nested", "general"

SHAPES = {
    SINGLE: [(1, 2, 3, 4), (1, 2, 3, 4, 5), (1, 2, 3, 4, 5, 6)],
    SPECIAL: [((1, 2), 3, 4), ((1, 2, 3), 4, 5), ((1, 2), (3, 4), 5),
              ((1, 2, 3), (4, 5), 6), ((1, 2), (3, 4), 5, 6)],
    NESTED: [(((1, 2), 3), 4, 5), ((((1, 2), 3), 4), 5), (((1, 2, 3), 4), 5, 6)],
    GENERAL: [(((1, 2), 3), (4, 5), 6), (((1, 2), 3), (4, 5, 6), 7)],
}

DELTA = "delta"                  # K = bd_Delta(w)
MINUS = "minus-facet"            # bd_Delta(w) less one facet
JOIN = "plus-join"               # bd_Delta(w) with the trivialising join
AMBIENT = "ambient"              # extra vertices and faces around bd_Delta(w)

# (shape, variant, extra vertices), one job each; m = leaves + extra <= 8
REALISE_CYCLE = [(SINGLE, DELTA, 1), (SPECIAL, AMBIENT, 1), (NESTED, DELTA, 1),
                 (SPECIAL, MINUS, 0), (SINGLE, AMBIENT, 2), (SPECIAL, JOIN, 1),
                 (NESTED, AMBIENT, 1), (SPECIAL, DELTA, 2), (GENERAL, DELTA, 1),
                 (SINGLE, JOIN, 1), (NESTED, MINUS, 0), (SPECIAL, AMBIENT, 2),
                 (SINGLE, MINUS, 1), (GENERAL, MINUS, 0), (NESTED, AMBIENT, 2),
                 (SPECIAL, JOIN, 0), (GENERAL, AMBIENT, 1), (SINGLE, AMBIENT, 1),
                 (NESTED, DELTA, 2), (SPECIAL, DELTA, 1)]


def _place(w, label):
    if isinstance(w, int):
        return label[w]
    return tuple(_place(c, label) for c in w)


def _full_on(faces, S):
    S = set(S)
    return frozenset(f for f in faces if S.issuperset(f))


def _realise_complex(rng, template, kind, variant, extra):
    """(w, m, faces) for one stratum of the realise cycle, or None when the
    draw does not fit it.  Outside the ambient variant the extra vertices
    are isolated points."""
    L = len(oracle.w_leaves(template))
    m = L + extra
    w = _place(template, dict(zip(range(1, L + 1), rng.sample(range(1, m + 1), L))))
    dw = oracle.delta_w(w)
    if variant == DELTA:
        return w, m, oracle.closure(m, dw)
    if variant == MINUS:
        big = [f for f in oracle.maximal(list(dw)) if len(f) >= 2]
        if not big:
            return None
        return w, m, oracle.closure(m, dw - {rng.choice(big)})
    if variant == JOIN:
        return w, m, oracle.closure(m, dw | oracle.trivialising_join(w))
    S = oracle.w_leaves(w)
    outside = [v for v in range(1, m + 1) if v not in S]
    inside = sorted(dw) if kind in (NESTED, GENERAL) else [
        tuple(sorted(rng.sample(S, rng.randint(0, len(S))))) for _ in range(8)]
    facets = [list(f) for f in dw]
    for _ in range(3):
        facets.append(rng.sample(outside, rng.randint(1, extra)) + list(rng.choice(inside)))
    faces = oracle.closure(m, facets)
    if any(oracle.w_leaves(c) in faces for c in w if not isinstance(c, int)):
        # a sub-product on a face of K: `status` then stops on an
        # AssertionError (its criterion says nontrivial, the class bounds)
        return None
    return w, m, faces


def make_realise(rng, count, inputs):
    seen = set()
    jobs = []
    for i in range(count):
        kind, variant, extra = REALISE_CYCLE[i % len(REALISE_CYCLE)]
        # the templates of a kind take turns, so every run has the same mix
        template = SHAPES[kind][i // len(REALISE_CYCLE) % len(SHAPES[kind])]
        for attempt in range(40):
            if attempt == 20:
                # the stratum has run out of distinct complexes
                variant, extra = AMBIENT, max(extra, 1)
            drawn = _realise_complex(rng, template, kind, variant, extra)
            if drawn and drawn[2] not in seen:
                break
        else:
            raise RuntimeError(f"no new complex for {kind} {variant} after 40 draws")
        w, m, faces = drawn
        seen.add(faces)
        path = f"{inputs}/{i}.json"
        _write(path, m, faces)
        text = oracle.w_text(w)
        argvs = []
        if oracle.is_special(w):
            argvs.append(["status", "--complex", path, "--w", text])
        argvs.append(["realises", "--complex", path, "--w", text])
        if oracle.delta_w(w) <= faces:
            argvs.append(["zigzag", "--complex", path, "--w", text])
        if oracle.is_nested(w) and _full_on(faces, oracle.w_leaves(w)) == oracle.delta_w(w):
            argvs.append(["taylor-cycle", "--complex", path, "--w", text])
        jobs.append(Job(argvs, m, faces, w))
    return jobs


def _expected(job):
    """What the paper's criteria say: (status, defined, nontrivial)."""
    w, faces = job.w, job.faces
    special = oracle.is_special(w)
    if not oracle.delta_w(w) <= faces:
        if special:
            return "undefined", "no", "no"
        return "undefined", "unknown-sufficient-only", "unknown"
    trivial = special and oracle.trivialising_join(w) <= faces
    if trivial:
        return "defined-trivial", "yes", "no"
    return "defined-nontrivial", "yes", "yes"


def _check_cell_cycle(text, job, what):
    chain = oracle.read_cell_chain(text)
    problems = []
    if not chain:
        problems.append(f"{what} is zero")
    if any(2 * len(I) + len(J) != oracle.w_dimension(job.w) for J, I in chain):
        problems.append(f"{what} is not of degree dim(w)")
    if any(tuple(sorted(J + I)) != oracle.w_leaves(job.w) for J, I in chain):
        problems.append(f"{what} does not live on the leaves of w")
    if any(I not in job.faces for _, I in chain):
        problems.append(f"{what} uses a disc cell outside K")
    if oracle.cellular_boundary(chain):
        problems.append(f"{what} is not a cellular cycle")
    return problems


def _check_taylor_cycle(text, job, what, nonzero=True):
    chain = oracle.read_taylor_chain(text)
    mf = oracle.missing_faces(job.m, job.faces)
    problems = []
    if nonzero and not chain:
        problems.append(f"{what} is zero")
    if any(F not in mf for word in chain for F in word):
        problems.append(f"{what} uses a generator that is not a missing face of K")
    dim = oracle.w_dimension(job.w)
    if any(2 * len({v for F in word for v in F}) - len(word) != dim for word in chain):
        problems.append(f"{what} is not of degree dim(w)")
    if oracle.taylor_boundary(mf, chain):
        problems.append(f"{what} is not killed by the Taylor differential")
    return problems


def check_realise(job, reports, hochster):
    status, defined, nontrivial = _expected(job)
    problems = []
    for argv, rep in zip(job.argvs, reports):
        verb = argv[0]
        if verb == "status" and rep["status"] != status:
            problems.append(f"status {rep['status']!r}, criteria give {status!r}")
        elif verb == "realises":
            if (rep["defined"], rep["nontrivial"]) != (defined, nontrivial):
                problems.append(f"realises says ({rep['defined']}, {rep['nontrivial']}), "
                                f"criteria give ({defined}, {nontrivial})")
            if (rep["witness"] is not None) != (nontrivial == "yes"):
                problems.append("a witness without nontriviality, or none with it")
            elif rep["witness"] is not None:
                problems += _check_cell_cycle(rep["witness"], job, "witness")
        elif verb == "zigzag":
            problems += _check_cell_cycle(rep["input_chain"], job, "zigzag input")
            problems += _check_taylor_cycle(rep["cycle"], job, "zigzag cycle",
                                            nonzero=nontrivial == "yes")
        elif verb == "taylor-cycle":
            if rep["degree"] != oracle.w_dimension(job.w):
                problems.append("taylor-cycle degree is not dim(w)")
            problems += _check_taylor_cycle(rep["cycle"], job, "taylor-cycle")
    return problems


# name -> (make, check, jobs per second of --seconds)
WORKLOADS = {
    "cellular": (make_cellular, check_cellular, 5),
    "taylor": (make_taylor, check_taylor, 5),
    "realise": (make_realise, check_realise, 20),
}
