"""Benchmark entry point.

    python3 perfbench/run.py --workload proj-bnb --seed 1 --seconds 50 --trace 0

Runs one workload in this process on one thread against the package under
``src/`` of the checkout it sits in.  Prints a summary, then as its last line
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Exits 2 without a result when the package is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dea_closest" / "__init__.py").is_file():
        print(f"error: no dea_closest package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from perfbench import harness

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    workload = WORKLOADS[args.workload]
    result = harness.run(workload, args.seed, args.seconds, bool(args.trace))

    env = result["environment"]
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}: {workload.why}")
    print(f"python {env['python']}, numpy {env['numpy']}, BLAS {env['blas']}, "
          f"threads {env['blas_threads']}, nproc {env['nproc']}")
    for key, value in result["summary"].items():
        print(f"  {key}: {value}")
    for name, value in result["metrics"].items():
        print(f"{name:45s} {value:14.6g} {units[name]}")
    for f in result["failures"]:
        exit_code = "none (raised)" if f.exit_code is None else f.exit_code
        dmu = f.dmu or "not named in the message"
        print(f"FAILED {f.dataset} (seed {f.seed}, index {f.index}) exit {exit_code}, "
              f"DMU {dmu}: {f.message}", file=sys.stderr)
    for note in result["notes"]:
        print(f"CHECK {note}", file=sys.stderr)

    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads: one thread, as measured
    sys.exit(main())
