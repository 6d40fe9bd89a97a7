"""A fixed ladder of CLI runs at scale, each in its own process.

    python3 tools/ladder.py [--only 'VERB CASE' ...] [--out BENCH_ladder.json] [--src DIR]
                            [--repeat N]

Runs every row of `ROWS` as `python -m momangle.cli VERB --complex CASE ...`
in a child process, one after the other, with momangle imported from `--src`
(src/ next to this directory by default), and writes one JSON object to
`--out`: the host, the address-space cap `CAP_MIB` and one row per run, in
`ROWS` order.  `--only` keeps the named rows ("homology polygon-12").
`--repeat N` runs the rows N times, in N rounds over the rows, so a drift
of the host's speed spreads over every row.

A row holds the verb, the case, the child's exit code, its wall time from
start to exit, start-up included, polled every 5 ms ("past N s" when it hit
its timeout and was killed), its own peak RSS in MiB (`os.wait4`'s rusage of that child,
not `RUSAGE_CHILDREN`, which keeps a running maximum over all children),
the size of its report in bytes, the sha256 of its exit code and report by
the rule of the job-list digests (`report_digest.digest`: the report
without `elapsed_s` and `inputs`) when it printed one, and, where
`tests/oracles.closed_form_homology` knows the case's groups, whether the
report's groups match them (`closed_form`; the table of `homology` and
`taylor`, both routes of `verify` and `hochster`'s aggregate).  A row that
exits nonzero keeps the last line of its stderr.  With `--repeat` above 1
the wall time and the peak RSS are the minima of the row's runs, `runs`
counts them and `wall_spread` and `rss_spread`, (max - min) / min, say how
far they spread; a row whose runs differ in exit code or digest is marked
`runs_differ`.

Each child writes its report to a file, since a pipe read only after exit
blocks the child once a report passes the pipe's buffer (64 KiB), and runs
under an address-space cap (`resource.setrlimit` in the child), so a
runaway row fails inside its cap instead of exhausting the host.  The cases
are written as JSON files in a temporary directory, or passed as builder
expressions, before any row is timed.  The tool exits 1 when a row's
groups differ from the closed form or its runs differ, else 0; a timeout
or a refusal is a measurement, not a failure.  CI re-runs the rows that
finished in the committed BENCH_ladder.json and compares their exit codes
and digests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from report_digest import digest

ROOT = Path(__file__).resolve().parent.parent
CAP_MIB = 1024  # each child's address-space cap


def nested(n):
    """The binary nested bracket [[...[[1,2],3]...],n]."""
    text = "[1,2]"
    for v in range(3, n + 1):
        text = f"[{text},{v}]"
    return text


def simplex_text(n, boundary=False):
    text = f"simplex({','.join(map(str, range(1, n + 1)))})"
    return f"bd({text})" if boundary else text


def flat(n):
    """The flat bracket [1,2,...,n]."""
    return "[" + ",".join(map(str, range(1, n + 1))) + "]"


SUB5 = "subst(bd(simplex(1,2,3)); bd(simplex(1,2,3)), pt, pt)"
RP2 = [[1, 2, 3], [1, 2, 4], [1, 3, 5], [1, 4, 6], [1, 5, 6],
       [2, 3, 6], [2, 4, 5], [2, 5, 6], [3, 4, 5], [3, 4, 6]]
BIG = ["--max-vertices", "30"]

# case: (complex, closed-form family and n or None); a complex is None for
# a verb without --complex, a builder expression, ("family", family, n) for
# `oracles.closed_form_family`, ("facets", m, facets) for explicit facets or
# ("delta-w", n) for bd_Delta of the n-leaf nested bracket, written as JSON
CASES = {
    **{f"leaves-{n}": (None, None) for n in (16, 20)},
    **{f"bracket-{n}": (None, None) for n in (8, 9)},
    "paper-sub5": (SUB5, None),
    "K6-graph": ("bd(bd(bd(bd(simplex(1,2,3,4,5,6)))))", ("complete-graph", 6)),
    "shifted-7": ("bd(bd(bd(simplex(1,2,3,4,5,6,7))))", None),
    "join-12": ("join(simplex(1,2,3,4,5,6,7,8),bd(bd(bd(simplex(1,2,3,4)))))", None),
    "rp2": (("facets", 6, RP2), None),
    "rp2-points-14": (("facets", 20, RP2), None),
    "points-40": (("family", "points", 40), None),
    **{f"{family}-{n}": (("family", family, n), (family, n))
       for family, sizes in [("polygon", (6, 8, 10, 12, 14, 16, 18)), ("points", (8, 12, 16, 20)),
                             ("cross-polytope", (6, 8, 10)), ("disjoint-edges", (6, 8, 10, 12))]
       for n in sizes},
    **{f"simplex-{n}": (simplex_text(n), ("simplex", n)) for n in (8, 12, 14, 16, 18, 20, 22, 25)},
    **{f"simplex-boundary-{n}": (simplex_text(n, True), ("simplex-boundary", n))
       for n in (8, 10, 12, 16, 20)},
    **{f"nested-{n}": (("delta-w", n), None) for n in range(5, 11)},
}

# (verb, case, extra argv, timeout in s): a scaling ladder of `homology`,
# the slow and the refused inputs known so far (each row past its timeout
# or its cap is one), the paper's example, the per-support verbs on
# isolated points and on a sphere, and the scale checks that CI runs.  A
# row that CI runs has a timeout of at least 4x its committed wall time;
# the `homology` rows in `LIMITS` keep the shorter limit CI held them to.
LIMITS = {"points-16": 30, "points-20": 20, "simplex-18": 20, "disjoint-edges-12": 10}
ROWS = [
    *[("homology", case, BIG if case == "disjoint-edges-12" else [], LIMITS.get(case, 60))
      for case in CASES if CASES[case][1]
      and case not in ("simplex-14", "simplex-22", "simplex-25", "simplex-boundary-10")],
    ("homology", "rp2-points-14", [], 10),
    ("mf", "simplex-20", [], 60),
    ("taylor", "K6-graph", [], 60),
    *[(verb, "paper-sub5", [], 60) for verb in ("homology", "taylor", "verify", "hochster")],
    ("status", "paper-sub5", ["--w", "[[1,2,3],4,5]"], 60),
    ("verify", "simplex-boundary-10", [], 20),
    ("verify", "simplex-boundary-16", [], 60),
    ("verify", "points-12", [], 60),
    ("verify", "points-16", [], 60),
    ("verify", "cross-polytope-8", [], 60),
    ("verify", "cross-polytope-10", [], 120),
    ("verify", "disjoint-edges-10", [], 30),
    ("verify", "K6-graph", [], 60),
    ("verify", "rp2", [], 20),
    ("hochster", "simplex-boundary-16", [], 60),
    ("hochster", "points-12", [], 60),
    ("hochster", "points-16", [], 60),
    ("hochster", "cross-polytope-10", [], 120),
    ("hochster", "disjoint-edges-10", [], 30),
    ("wedge-basis", "shifted-7", [], 10),
    ("wedge-basis", "simplex-14", [], 20),
    ("wedge-basis", "simplex-boundary-16", [], 60),
    ("wedge-basis", "points-12", [], 60),
    ("wedge-basis", "points-16", [], 30),
    ("realises", "points-20", ["--w", flat(20)], 20),
    *[(verb, "points-40", [*extra, "--max-vertices", "40"], 20)
      for verb, extra in [("mf", []), ("status", ["--w", "[1,2]"]), ("taylor", [])]],
    *[("delta-w", f"leaves-{n}", ["--w", flat(n)], 20) for n in (16, 20)],
    *[("delta-w", f"bracket-{n}", ["--w", nested(n)], 20) for n in (8, 9)],
    ("status", "simplex-20", ["--w", "[1,2]"], 20),
    ("status", "simplex-22", ["--w", "[1,2]", *BIG], 20),
    ("status", "simplex-25", ["--w", "[1,2]", *BIG], 30),
    *[(verb, f"nested-{n}", ["--w", nested(n)], 20 if n < 10 else 120)
      for verb in ("taylor-cycle", "zigzag") for n in range(5, 11)],
    *[(verb, "join-12", ["--w", "[[[9,10],11],12]"], 20) for verb in ("taylor-cycle", "zigzag")],
]


def write_cases(names, directory):
    """{case: the --complex value} for the cases `names`, JSON files
    written under `directory`."""
    from momangle.whitehead import delta_w, parse_whitehead
    from oracles import closed_form_family

    out = {}
    for name in names:
        spec = CASES[name][0]
        if spec is None or isinstance(spec, str):
            out[name] = spec
            continue
        if spec[0] == "facets":
            data = {"m": spec[1], "facets": spec[2]}
        elif spec[0] == "family":
            data = closed_form_family(spec[1], spec[2]).to_json_dict()
        else:
            data = delta_w(parse_whitehead(nested(spec[1]))).complex.to_json_dict()
        path = Path(directory) / f"{name}.json"
        path.write_text(json.dumps(data))
        out[name] = str(path)
    return out


# verb: the report's degree -> group tables that a closed form checks
GROUPS = {
    "homology": lambda report: [report["homology"]],
    "taylor": lambda report: [report["homology"]],
    "verify": lambda report: list(report["routes"].values()),
    "hochster": lambda report: [report["aggregate"]],
}


def run(argv, src, timeout, report_path, err_path):
    """(exit code, wall s, killed at its timeout, peak RSS in MiB) of one
    child, polled every 5 ms; no thread runs beside `preexec_fn`.  A child
    not yet reaped when the loop stops early (Ctrl-C) is killed and reaped."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (CAP_MIB << 20, CAP_MIB << 20))

    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    with open(report_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-m", "momangle.cli", *argv],
                                 stdout=out, stderr=err, env=env, preexec_fn=limit)
        killed, done = False, (0,)
        try:
            while not (done := os.wait4(child.pid, os.WNOHANG))[0]:
                if not killed and time.perf_counter() - started > timeout:
                    child.kill()
                    killed = True
                time.sleep(0.005)
        finally:
            if not done[0]:
                child.kill()
                os.wait4(child.pid, 0)
        wall = time.perf_counter() - started
    _, status, usage = done
    child.returncode = code = os.waitstatus_to_exitcode(status)
    return code, wall, killed, usage.ru_maxrss / 1024


def spread(values):
    """(max - min) / min of a row's runs."""
    return round(max(values) / min(values) - 1, 3)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", action="append",
                        help="run only this row, e.g. 'verify points-16'")
    parser.add_argument("--out", default=str(ROOT / "BENCH_ladder.json"))
    parser.add_argument("--src", default=str(ROOT / "src"), help="the momangle source to run")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs of each row, in rounds over the rows (default 1)")
    args = parser.parse_args()
    rows = [r for r in ROWS if not args.only or f"{r[0]} {r[1]}" in args.only]
    if args.only and len(rows) != len(set(args.only)):
        parser.error(f"unknown rows among {args.only}")
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    # the inputs and the closed forms come from this checkout, the runs from --src
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    runs, out, wrong = [[] for _ in rows], [], False
    with tempfile.TemporaryDirectory() as tmp:
        complexes = write_cases({case for _, case, _, _ in rows}, tmp)
        from oracles import closed_form_homology

        for r in range(args.repeat):
            for k, (verb, case, extra, timeout) in enumerate(rows):
                if runs[k] and runs[k][-1][2]:
                    continue  # a row past its timeout is not run again
                argv = [verb, *(["--complex", complexes[case]] if complexes[case] else []),
                        *extra]
                report, err = Path(tmp) / f"report{k}-{r}", Path(tmp) / f"stderr{k}-{r}"
                runs[k].append((*run(argv, args.src, timeout, report, err), report, err))
        # the reports are read after the last run: a child's peak RSS counts
        # this process's memory at the fork, which reading a report raises
        for (verb, case, _, timeout), row_runs in zip(rows, runs):
            code, _, timed_out, _, report, err = row_runs[-1]
            walls, rsses = [w for _, w, _, _, _, _ in row_runs], [m for *_, m, _, _ in row_runs]
            row = {"verb": verb, "case": case, "exit": code,
                   "wall_s": f"past {timeout} s" if timed_out else round(min(walls), 3),
                   "peak_rss_mib": round(min(rsses), 1), "report_bytes": report.stat().st_size}
            if args.repeat > 1:
                row.update(runs=len(row_runs), wall_spread=spread(walls),
                           rss_spread=spread(rsses))
            if row["report_bytes"] and not timed_out:
                digests = {digest([(c, rep.read_text())]) for c, _, _, _, rep, _ in row_runs}
                row["sha256"] = digest([(code, report.read_text())])
                if len(digests) > 1:
                    row["runs_differ"] = True
                    wrong = True
            form = CASES[case][1]
            if form and code == 0 and verb in GROUPS:
                want = {str(d): {"rank": r, "torsion": []}
                        for d, r in closed_form_homology(*form).items()}
                tables = GROUPS[verb](json.loads(report.read_text()))
                row["closed_form"] = all(table == want for table in tables)
                wrong |= not row["closed_form"]
            if code and not timed_out:
                lines = err.read_text(errors="replace").strip().splitlines()
                row["stderr"] = lines[-1][:200] if lines else ""
            print(json.dumps(row), file=sys.stderr)
            out.append(row)
    host = {"python": platform.python_version(), "machine": platform.machine(),
            "cpus": os.cpu_count()}
    Path(args.out).write_text(json.dumps({"host": host, "cap_mib": CAP_MIB, "rows": out},
                                         indent=2) + "\n")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
