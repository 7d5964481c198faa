"""Run the benchmark over several seeds and report how far each metric spreads.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads proj-bnb frontier-rts]
        [--trace-seeds 1-2] [--record LABEL --commit SHA]

Each run is one ``perfbench/run.py`` process, one after another, with
``run_seconds`` from BENCHMARK.json.  For every end-to-end metric the sweep
prints the median, the quartiles (``statistics.quantiles(values, n=4)``) and
the spread (q3 - q1) / median next to the metric's bound.  ``--trace-seeds``
adds traced runs for the per-layer metrics.  ``--record`` appends all figures
to ``perfbench/trajectory.json`` as one entry.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = ROOT / "perfbench" / "trajectory.json"


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def sweep(workload: str, seeds: list[int], seconds: int, trace: int) -> dict:
    runs = []
    for seed in seeds:
        t0 = time.perf_counter()
        result = run_once(workload, seed, seconds, trace)
        runs.append(result)
        values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"{workload} seed {seed} trace {trace} ({time.perf_counter() - t0:.0f} s): "
              f"correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {values}", flush=True)
    names = runs[0]["metrics"]
    return {
        "seeds": seeds,
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {name: dict(unit=runs[0]["metrics"][name]["unit"],
                               **spread([r["metrics"][name]["value"] for r in runs]))
                    for name in names},
    }


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace-seeds", type=seed_range, default=[])
    parser.add_argument("--record", metavar="LABEL")
    parser.add_argument("--commit", default="")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    entry = {"label": args.record, "commit": args.commit, "run_seconds": seconds,
             "date": time.strftime("%Y-%m-%d"), "workloads": {}}
    for workload in args.workloads:
        figures = {"end_to_end": sweep(workload, args.seeds, seconds, 0)}
        for name, f in figures["end_to_end"]["metrics"].items():
            bound = bounds.get(name)
            flag = "" if bound is None or f["spread"] < bound / 3 else "  <-- above bound/3"
            print(f"  {workload:14s} {name:14s} median {f['median']:.6g} {f['unit']}  "
                  f"q1 {f['q1']:.6g}  q3 {f['q3']:.6g}  spread {f['spread']:.4f}  "
                  f"bound {bound}{flag}")
        if args.trace_seeds:
            figures["per_layer"] = sweep(workload, args.trace_seeds, seconds, 1)
        entry["workloads"][workload] = figures

    if args.record:
        record = json.loads((ROOT / "perfbench" / ".work" / f"run-{args.workloads[0]}-"
                             f"{args.seeds[0]}-timed.json").read_text(encoding="utf-8"))
        entry["environment"] = record["environment"]
        history = (json.loads(TRAJECTORY.read_text(encoding="utf-8"))
                   if TRAJECTORY.exists() else {"entries": []})
        history["entries"].append(entry)
        TRAJECTORY.write_text(json.dumps(history, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
