"""Properties that tie several verbs together, on seeded random inputs.

Each property runs the CLI in process on a bounded, seeded sample, so a
failure names its input and repeats on every run."""

import json
import random

from momangle.cli import main
from momangle.whitehead import (DEFINED_NONTRIVIAL, DEFINED_TRIVIAL, DEFINED_UNKNOWN,
                                OUTSIDE_CRITERION, UNDEFINED)
from oracles import random_complex, random_product_pair

PRODUCT_VERBS = ("status", "realises", "zigzag", "taylor-cycle", "hurewicz", "delta-w")


def test_product_verbs_agree_on_random_pairs(tmp_path, capsys):
    """On 100 seeded (K, w), a quarter of them with K drawn at random and
    the rest around bd_Delta(w), every verb on products exits 0, 1, 2 or 3
    and raises nothing.  Where `status` and `realises` both answer, they
    agree: `undefined` exactly when `defined` is not `yes`, a trivial
    product is not realised nontrivially, and a nontrivial one is not
    realised trivially.  Outside the paper's criterion (the status carries
    its note) the status is `realises`' verdict: nontrivial, trivial or
    unknown as `nontrivial` is yes, no or unknown."""
    rng = random.Random(17)
    statuses, outside = {}, 0
    for i in range(100):
        K, w = random_product_pair(rng, max_vertices=7, max_leaves=6)
        if i % 4 == 0:
            K = random_complex(K.m, rng)
        path = tmp_path / f"k{i}.json"
        path.write_text(json.dumps({"m": K.m, "facets": [list(f) for f in K.facets]}))
        reports = {}
        for verb in PRODUCT_VERBS:
            argv = [verb, "--w", w.to_text()]
            if verb not in ("hurewicz", "delta-w"):
                argv += ["--complex", str(path)]
            code = main(argv)
            out = capsys.readouterr().out
            assert code in (0, 1, 2, 3), (argv, K.facets)
            if code == 0:
                reports[verb] = json.loads(out)
        if "status" not in reports or "realises" not in reports:
            continue
        status = reports["status"]["status"]
        defined, nontrivial = reports["realises"]["defined"], reports["realises"]["nontrivial"]
        where = (K.facets, w.to_text(), status, defined, nontrivial)
        assert (status == UNDEFINED) == (defined != "yes"), where
        assert status != DEFINED_TRIVIAL or nontrivial != "yes", where
        assert status != DEFINED_NONTRIVIAL or nontrivial != "no", where
        if reports["status"].get("notes") == [OUTSIDE_CRITERION]:
            verdict = {"yes": DEFINED_NONTRIVIAL, "no": DEFINED_TRIVIAL}.get(
                nontrivial, DEFINED_UNKNOWN)
            assert status == verdict, where
            outside += 1
        statuses[status] = statuses.get(status, 0) + 1
    assert {UNDEFINED, DEFINED_TRIVIAL, DEFINED_NONTRIVIAL} <= set(statuses), statuses
    assert outside > 0
