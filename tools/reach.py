"""The definitions in src/momangle that no CLI call of a fixed traffic enters.

    python3 tools/reach.py

Runs these argvs through `momangle.cli.main` in this process, under
`sys.setprofile`:

- every argv of tests/golden_cli.json;
- the seed-1, 2-second job lists of the three benchmark workloads, built as
  tools/report_digest.py builds them;
- one argv for each verb the golden file lacks, and the help of the
  command and of one verb (`EXTRA` below).

Prints, as a sorted JSON list, the qualified names (`module.Class.method`,
`module.function.inner`) of the `def`s in src/momangle whose code was never
entered.  A code object is matched to its `def` by file, first line and
name; the code of a decorated def starts at its first decorator line, so
that line matches as well as the `def` line.  A name on the list is reached
by no verb on this traffic: only tests, `verify` on other inputs, or the
benchmark's tracer call it, or nothing does.

tools/reach.json holds the output; to write it again:

    python3 tools/reach.py > tools/reach.json
"""

from __future__ import annotations

import ast
import json
import sys
import tempfile

import report_digest

SUB5 = "subst(bd(simplex(1,2,3)); bd(simplex(1,2,3)), pt, pt)"

# the verbs tests/golden_cli.json does not call, and -h
EXTRA = [
    ["mf", "--complex", SUB5],
    ["subst", "--complex", SUB5],
    ["delta-w", "--w", "[[1,2,3],4,5]"],
    ["hurewicz", "--w", "[[1,2,3],4,5]"],
    ["hochster", "--complex", SUB5],
    ["hochster", "--complex", SUB5, "--subset", "1,2,3"],
    # the usage texts, which no report prints
    ["--help"],
    ["hochster", "-h"],
]


def definitions(src):
    """{(file, first line, name): qualified name} of every def under `src`,
    keyed by its `def` line and, when decorated, by its first decorator
    line too."""
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualified = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    for line in [child.lineno] + [d.lineno for d in child.decorator_list[:1]]:
                        out[(path, line, child.name)] = qualified
                visit(child, path, qualified + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text()), str(path), path.stem + ".")
    return out


def traffic(inputs):
    """Every argv of the traffic, in order; job inputs go under `inputs`."""
    golden = json.loads((report_digest.ROOT / "tests" / "golden_cli.json").read_text())
    argvs = [case["argv"] for case in golden]
    for workload in ("cellular", "taylor", "realise"):
        argvs += report_digest.job_argvs(workload, 1, 2, inputs)
    return argvs + EXTRA


def unreached():
    defs = definitions(report_digest.ROOT / "src" / "momangle")
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno, code.co_name))

    with tempfile.TemporaryDirectory() as inputs:
        argvs = traffic(inputs)
        sys.setprofile(profile)
        try:
            for argv in argvs:
                report_digest.call(argv)
        finally:
            sys.setprofile(None)
    reached = {defs[key] for key in entered if key in defs}
    return sorted(set(defs.values()) - reached)


def main():
    report_digest.use_checkout()
    print(json.dumps(unreached(), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
