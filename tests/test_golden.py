"""Golden CLI outputs on the paper's examples.

Every case runs `momangle.cli.main` and compares the exit code and the full
report (JSON without `elapsed_s`, or the text rendering without its
`elapsed_s` line) against `golden_cli.json`.  Regenerate the file only when
an output is meant to change:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from momangle.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

SUB5 = "subst(bd(simplex(1,2,3)); bd(simplex(1,2,3)), pt, pt)"
BD3 = "bd(simplex(1,2,3))"
# the canonical complex of [[1,2],[3,4],5], leaves at their own labels
DW_22_1 = "subst(bd(simplex(1,2,3)); bd(simplex(1,2)), bd(simplex(1,2)), pt)"
# the edges of a tetrahedron: shifted, with a wedge basis spread over many subsets
GRAPH4 = "bd(bd(simplex(1,2,3,4)))"
# the complete graph on five vertices: ten missing triangles, |MF| = 10
GRAPH5 = "bd(bd(bd(simplex(1,2,3,4,5))))"

PAIRS = [(SUB5, "[[1,2,3],4,5]"), (SUB5, "[[1,4,5],2]"), (SUB5, "[1,2,3]"),
         (SUB5, "[1,4,5]"), (BD3, "[1,2,3]"), (DW_22_1, "[[1,2],[3,4],5]"),
         (DW_22_1, "[1,2]")]

CASES = (
    [["homology", "--complex", K] for K in (SUB5, BD3, DW_22_1, GRAPH4)]
    + [["taylor", "--complex", K] for K in (SUB5, BD3, DW_22_1)]
    + [["wedge-basis", "--complex", K] for K in (SUB5, BD3, DW_22_1, GRAPH4)]
    + [[verb, "--complex", K, "--w", w]
       for verb in ("status", "realises", "zigzag", "taylor-cycle")
       for K, w in PAIRS]
    + [["zigzag", "--complex", K, "--w", w, "--format", "text"]
       for K, w in PAIRS]
    + [[verb, "--complex", K] for verb in ("taylor", "verify") for K in (GRAPH4, GRAPH5)]
)


def run(argv):
    """Exit code and report of one CLI call, with the timing removed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    text = buf.getvalue()
    if "--format" in argv:
        report = "\n".join(line for line in text.splitlines()
                           if not line.startswith("elapsed_s:"))
    else:
        report = json.loads(text) if text else None
        if report is not None:
            report.pop("elapsed_s")
    return {"argv": list(argv), "code": code, "report": report}


def load_golden():
    return {tuple(entry["argv"]): entry for entry in json.loads(GOLDEN.read_text())}


@pytest.mark.parametrize("argv", CASES, ids=lambda a: " ".join(a[:1] + a[2:]))
def test_golden_output(argv):
    assert run(argv) == load_golden()[tuple(argv)]


def test_golden_file_covers_every_case():
    assert set(load_golden()) == {tuple(a) for a in CASES}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([run(a) for a in CASES], indent=1) + "\n")
