"""Digest of the CLI reports on one benchmark job list.

    python3 tools/report_digest.py --workload cellular|taylor|realise \
        --seed N --seconds S

Builds the seeded job list of bench/workloads.py (the jobs `bench/run.py`
would time at that seed and --seconds), with its input files in a temporary
directory, and runs every argv through `momangle.cli.main` in this process.
Prints one JSON line: the workload, seed and seconds, the number of calls,
and their `digest`.  Two versions of the program that give the same digest
gave byte-for-byte the same answers.  tools/ladder.py takes each row's
digest by the same rule.

tools/report_digests.json holds the digests at seeds 1 and 7 and
--seconds 2 and 20, one object per length, workload and seed; to write it
again:

    for t in 2 20; do for s in 1 7; do for w in cellular taylor realise; do
        python3 tools/report_digest.py --workload $w --seed $s --seconds $t
    done; done; done | python3 -c 'import json, sys; print(json.dumps([json.loads(l) for l in sys.stdin], indent=2))' \
        > tools/report_digests.json

momangle is imported from src/ next to this directory, and the workloads
from bench/, which is only read: no bytecode is written there.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def use_checkout():
    """Import momangle from src/ and the workloads from bench/, writing no
    bytecode."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]


def job_argvs(workload, seed, seconds, inputs):
    """The argvs of the seeded job list, in order; its input files are
    written under the directory `inputs`."""
    from workloads import WORKLOADS

    make, _, rate = WORKLOADS[workload]
    return [argv for job in make(random.Random(seed), rate * seconds, inputs)
            for argv in job.argvs]


def call(argv):
    """(exit code, printed report) of one `cli.main` call."""
    from momangle import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def digest(calls):
    """sha256 over the (exit code, printed report) pairs `calls`, in order,
    each report without `elapsed_s` (a time) and `inputs` (the paths it was
    given); a call that printed no report counts as report null."""
    pairs = []
    for code, text in calls:
        report = json.loads(text or "null")
        if report is not None:
            del report["elapsed_s"], report["inputs"]
        pairs.append([code, report])
    return hashlib.sha256(json.dumps(pairs, sort_keys=True).encode()).hexdigest()


def job_list_digest(workload, seed, seconds):
    with tempfile.TemporaryDirectory() as inputs:
        calls = [call(argv) for argv in job_argvs(workload, seed, seconds, inputs)]
    return {"workload": workload, "seed": seed, "seconds": seconds, "calls": len(calls),
            "sha256": digest(calls)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("cellular", "taylor", "realise"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=2)
    args = parser.parse_args(argv)
    use_checkout()
    print(json.dumps(job_list_digest(args.workload, args.seed, args.seconds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
