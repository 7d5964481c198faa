"""Counter gates on traced benchmark runs, one table row per workload.

    python3 .github/counter_gates.py proj-bnb

Runs ``perfbench/run.py --trace 1`` on the named workload with the seed and
seconds of its row and exits non-zero when a gated counter exceeds its gate.
A row marked ``clean`` also fails unless every call succeeded and every
output checked out.  Any row fails on a ``FAILED`` line with exit 5, an
analysis error: on the units row, whose programs are all feasible by
construction, that is numerical trouble reported as infeasibility.

The traced counters depend only on the seed and ``--seconds``, not on the
runner's speed.  Each gate sits at its traced value, so a change meant to
cut only overhead cannot move a count unnoticed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Row(NamedTuple):
    seed: int
    seconds: int
    clean: bool  # every call must succeed and every output check out
    gates: dict[str, float]  # metric -> largest value that passes


GATES = {
    # warm-started nodes and stage-1 roots: every stage-1 root starts from
    # the optimal basis of the LP relaxation of its frontier's template, the
    # stage-1 program of the frontier's first DMU that is not a member, and
    # that relaxation is the one projection LP per traced frontier (3 LPs;
    # their 49 pivots left the MILPs, so the total is unchanged).  147 nodes,
    # 344 pivots and 65 MILPs; 148, 554 and 67 with every stage-1 root cold;
    # 151, 346 and 67 with each started from the previous DMU's root basis.
    # The size of the search (184 nodes when every popped node is solved, 156
    # when a node whose parent's bound ties the incumbent is discarded
    # unsolved, both with roots from the previous DMU's) and the BCC phase-1
    # start (465 BCC pivots with phase 1 cold,
    # 222 from theta=1, lambda_o=1, 133 from the previous DMU's optimal
    # phase-1 basis); BCC phase 2 runs at once only where theta = 1 leaves
    # the flag open (58 BCC solves and 133 pivots with it run wherever a
    # slack is not priced out, 42 and 91 with it deferred below theta = 1 to
    # a reader of the slacks, which project does not have; 28 and 72 when a
    # DMU whose lambda column is basic in an earlier phase-1 basis that
    # prices out every slack is certified efficient without an LP).  A
    # lexicographic stage whose slack the previous stage's point holds at 0
    # is recorded unsolved (72 MILPs and 156 nodes with every stage solved,
    # 67 and 151 without); those stages take no pivot, so pivots per node
    # rises with every stage so skipped: the pivots and the MILPs are gated
    # beside the nodes.  The last stage, whose one free slack has a single
    # feasible value, is recorded from the previous stage's point: 118
    # nodes, 298 pivots and 48 MILPs; 147, 344 and 65 with it solved
    "proj-bnb": Row(seed=1, seconds=10, clean=True, gates={
        "solver.branch_and_bound.nodes": 118,
        "solver.simplex.pivots": 298,
        "projection.milp_solves": 48,
        "projection.lp_solves": 3,
        "efficiency.lp_solves": 28,
        "efficiency.pivots": 72,
    }),
    # one dataset and 100 intercept LPs; the (m+s+1)-row envelopment form
    # takes 543 pivots there with each stage started at its best vertex with
    # one positive lambda (755 with the maximizing stage cold and the
    # minimizing one from lambda = 0, 855 with both cold), the n+2-row
    # multiplier form took 2189.  BCC phase 2 runs only where the
    # phase-1 prices leave a slack open (100 BCC solves with phase 2 always
    # run, 59 with each phase 1 from theta=1, lambda_o=1, 50 and 324 BCC
    # pivots with it from the previous DMU's basis, against 578; 27 and 216
    # with the DMUs an earlier phase-1 basis certifies efficient not solved),
    # the b = 0 support LPs skip their phase 1 (832 MCRS pivots with it
    # iterated, 456 without), and the BCC and intercept prices spare the
    # support LP of most DMUs (11 MCRS solves and 93 pivots, against 50 and
    # 456; 9 and 75 with a certified DMU reading its certifier's BCC prices;
    # none once a DMU that one input or output separates from every
    # efficient DMU the prices leave is certified alone)
    "frontier-rts": Row(seed=1, seconds=10, clean=True, gates={
        "returns_to_scale.pivots": 543,
        "efficiency.lp_solves": 27,
        "efficiency.pivots": 216,
        "reference_set.lp_solves": 0,
        "reference_set.pivots": 0,
    }),
    # the only run of support LPs at the closest targets of inefficient DMUs,
    # where no price certificate spares the LP: 28 support LPs and 116 pivots
    # (27 and 113 with a certified DMU reading its certifier's BCC prices, 18
    # and 90 with the efficient DMUs that the sign test on the DMUs the
    # prices leave certifies alone not solved);
    # the intercept LPs at those targets take 177 pivots with each stage
    # started at its best vertex with one positive lambda (246 with the
    # maximizing stage cold and the minimizing one from lambda = 0)
    "bnb-report": Row(seed=1, seconds=10, clean=True, gates={
        "returns_to_scale.pivots": 177,
        "reference_set.lp_solves": 18,
        "reference_set.pivots": 90,
    }),
    # rescaled columns, a fixed prefix of 36 datasets: calls may fail or run
    # out of time, but every program is feasible by construction, so an
    # "infeasible" solver status is numerical trouble reported as
    # infeasibility
    "units": Row(seed=1, seconds=120, clean=False, gates={
        "solver.status.infeasible": 0,
    }),
}


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0] not in GATES:
        print(f"usage: counter_gates.py {{{','.join(GATES)}}}", file=sys.stderr)
        return 2
    workload = argv[0]
    row = GATES[workload]
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(row.seed), "--seconds", str(row.seconds), "--trace", "1"],
        capture_output=True, text=True, check=True)
    sys.stderr.write(run.stderr)
    result = json.loads(run.stdout.splitlines()[-1])
    metrics = result["metrics"]

    broken = []
    print(f"correct {result['correct']}, failed {result['failed']}")
    if row.clean and (result["correct"] is not True or result["failed"] != 0):
        broken.append("not every call succeeded and checked out")
    for name, gate in row.gates.items():
        value = metrics[name]["value"]
        print(f"{name} {value:g} (gate {gate:g})")
        if value > gate:
            broken.append(f"{name} {value:g} above {gate:g}")
    exit5 = [ln for ln in run.stderr.splitlines()
             if ln.startswith("FAILED ") and " exit 5," in ln]
    print(f"exit-5 failures {len(exit5)}")
    if exit5:
        broken.append(f"{len(exit5)} exit-5 failures")
    if broken:
        print(f"{workload} counter gate failed: {'; '.join(broken)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
