"""Self-test of the benchmark's checks: corrupted reports must be rejected.

    python3 bench/selftest.py [--seed 1]

For a few jobs of each workload it runs the CLI, confirms that the check
passes the genuine reports, then feeds it each corruption below and expects
it to report a problem.  It also confirms the oracle on a known answer.
Exits 1 if a genuine report is rejected or a corrupted one passes.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
import tempfile

import oracle
import run
import workloads


def _bump_rank(rep):
    d = max(rep["homology"], key=int)
    rep["homology"][d]["rank"] += 1


def _add_torsion(rep):
    d = max(rep["homology"], key=int)
    rep["homology"][d]["torsion"].append(2)


def _drop_rank(rep):
    rep["ranks"].pop(max(rep["ranks"], key=int))


def _swap_generators(rep):
    rep["generator_order"][:2] = rep["generator_order"][1::-1]


def _bump_binomial(rep):
    rep["ranks_by_index"][1] += 1


def _flip_status(rep):
    rep["status"] = {"defined-trivial": "defined-nontrivial"}.get(
        rep["status"], "defined-trivial")


def _flip_nontrivial(rep):
    rep["nontrivial"] = "unknown" if rep["nontrivial"] == "yes" else "yes"


def _low_degree_witness(rep):
    if rep["witness"] is None:
        rep["witness"] = "S1"
    else:
        rep["witness"] += " + S1"


def _low_degree_input(rep):
    rep["input_chain"] += " + S1"


def _vertex_generator(rep):
    rep["cycle"] = "w1" if rep["cycle"] == "0" else rep["cycle"] + " + w1"


def _bump_degree(rep):
    rep["degree"] += 1


# verb -> corruptions; each must make the check fail on every job
CORRUPTIONS = {
    "homology": [_bump_rank, _add_torsion, _drop_rank, _swap_generators],
    "taylor": [_bump_rank, _add_torsion, _bump_binomial, _swap_generators],
    "status": [_flip_status],
    "realises": [_flip_nontrivial, _low_degree_witness],
    "zigzag": [_low_degree_input, _vertex_generator],
    "taylor-cycle": [_vertex_generator, _bump_degree],
}

JOBS = {"cellular": 4, "taylor": 3, "realise": 20}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    bad = []
    if oracle.reduced_homology(sorted(oracle.closure(6, workloads.RP2), key=len)) != {1: (0, (2,))}:
        bad.append("oracle: RP^2 is not H~_1 = Z/2")
    if oracle.normal_torsion([2, 4, 3]) != (2, 12):
        bad.append("oracle: Z/2 + Z/4 + Z/3 is not Z/2 + Z/12")
    caught = 0
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as inputs:
        for name, count in JOBS.items():
            make, check, _ = workloads.WORKLOADS[name]
            cli, jobs, _ = run.setup(name, args.seed, count, run.Path(inputs) / name)
            hochster = oracle.Hochster()
            for k, job in enumerate(jobs):
                results = [run.call(cli, argv) for argv in job.argvs]
                problems, _ = run.judge(job, results, check, hochster)
                if problems:
                    bad.append(f"{name} job {k}: genuine report rejected: {problems}")
                    continue
                reports = [json.loads(out) for _, out, _ in results]
                for i, argv in enumerate(job.argvs):
                    for corrupt in CORRUPTIONS[argv[0]]:
                        forged = copy.deepcopy(reports)
                        corrupt(forged[i])
                        if check(job, forged, hochster):
                            caught += 1
                        else:
                            bad.append(f"{name} job {k}: {argv[0]} {corrupt.__name__} passed")
    for line in bad:
        print(line)
    print(f"{caught} corrupted reports rejected, {len(bad)} failures")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
