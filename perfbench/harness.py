"""One benchmark run: set-up, the timed or traced calls, checks and metrics.

Each operation is one in-process ``dea_closest.cli.main([<command>, "--input",
<csv>])`` call with stdout and stderr captured; the workload names the
subcommand.  A call fails when it returns a nonzero exit code or raises; the
run records the failure and goes on.
"""

from __future__ import annotations

import io
import json
import math
import os
import platform
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from dea_closest import cli

from . import calibrate, tracing
from .workloads import WARMUP_INDEX, BenchDataset, Workload, make_dataset, make_pool, write_csvs

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / ".work"
SETUP_REPEATS = 5
# a call still running after this long is stopped and counted as failed; on
# the benchmark's workloads a call takes a few seconds, but some `units`
# datasets keep the solver busy for minutes
CALL_LIMIT_S = 30.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_DMU = re.compile(r"DMU '([^']*)'")


@dataclass
class Call:
    dataset: int
    seconds: float
    exit_code: int | None  # None when the call raised
    output: str
    error: str
    kernel_s: float = math.nan  # reference kernel time measured just before
    timed: bool = True

    @property
    def ok(self) -> bool:
        return self.exit_code == 0

    @property
    def scaled_s(self) -> float:
        return calibrate.scale(self.seconds, self.kernel_s)


@dataclass
class Failure:
    dataset: str
    seed: int
    index: int
    exit_code: int | None
    dmu: str | None
    message: str


class CallTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise CallTimeout(f"call still running after {CALL_LIMIT_S:g} s")


def call_cli(command: str, path: Path) -> tuple[int | None, str, str]:
    """Exit code (None if the call raised), captured stdout, error text."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, CALL_LIMIT_S)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main([command, "--input", str(path)])
    except SystemExit as exc:  # argparse rejects its arguments this way
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # an uncaught error is a failed operation, not a crashed run
        return None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue().strip()


def timed_call(command: str, k: int, path: Path) -> Call:
    kernel_s = calibrate.kernel_seconds()
    t0 = time.perf_counter()
    code, out, err = call_cli(command, path)
    return Call(k, time.perf_counter() - t0, code, out, err, kernel_s)


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
    }


def setup(workload: Workload, seed: int, workdir: Path
          ) -> tuple[float, float, list[BenchDataset], list[Path]]:
    """Interpreter start and package import (in a child process), dataset
    generation, CSV writing and a warm-up call; returns the wall time and the
    reference kernel time measured just before."""
    kernel_s = calibrate.kernel_seconds()
    t0 = time.perf_counter()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", "import dea_closest.cli"], env=env, check=True)
    pool = make_pool(workload, seed)
    warmup = make_dataset(workload, seed, WARMUP_INDEX)
    paths = write_csvs([warmup] + pool, workdir)
    call_cli(workload.command, paths[0])
    return time.perf_counter() - t0, kernel_s, pool, paths[1:]


def strip_timings(text: str) -> str:
    """Report text without ``meta.timings``, the one field allowed to vary."""
    try:
        doc = json.loads(text)
        doc["meta"].pop("timings", None)
    except (json.JSONDecodeError, KeyError, TypeError):
        return text
    return json.dumps(doc)


def differing_records(a: str, b: str, n: int) -> set[int]:
    """Indices of the DMU records that differ between two stripped reports."""
    try:
        da, db = json.loads(a), json.loads(b)
        ra, rb = da.pop("results"), db.pop("results")
    except (json.JSONDecodeError, KeyError, TypeError, AttributeError):
        return set(range(n))
    if da != db or len(ra) != len(rb):
        return set(range(n))
    return {i for i, (x, y) in enumerate(zip(ra, rb)) if x != y}


def check_outputs(calls: list[Call], pool: list[BenchDataset]) -> tuple[list[set[int]], list[str]]:
    """Wrong DMU records of every call, and a note per problem found.

    A record is wrong when the independent checks reject it, or when it
    differs from the first output of the same dataset in this run.
    """
    from .oracle import Checker  # imports SciPy; kept out of the measured process until now

    checker = Checker(ROOT / "src" / "dea_closest" / "schemas")
    first: dict[int, str] = {}
    verdicts: dict[str, dict[int, str]] = {}
    wrong, notes = [], []
    for c in calls:
        if not c.ok:
            wrong.append(set())
            continue
        ds = pool[c.dataset]
        text = strip_timings(c.output)
        if text not in verdicts:
            verdicts[text] = checker.check(c.output, ds)
            notes += [f"{ds.name} {msg}" for msg in verdicts[text].values()]
        bad = set(verdicts[text])
        ref = first.setdefault(c.dataset, text)
        if text != ref:
            changed = differing_records(ref, text, ds.n)
            notes.append(f"{ds.name}: records {sorted(changed)} differ between repeats")
            bad |= changed
        wrong.append(bad)
    return wrong, notes


def failures(calls: list[Call], pool: list[BenchDataset]) -> list[Failure]:
    out = []
    for c in calls:
        if c.ok:
            continue
        ds = pool[c.dataset]
        dmu = _DMU.search(c.error)
        out.append(Failure(ds.name, ds.seed, ds.index, c.exit_code,
                           dmu.group(1) if dmu else None, c.error or "(no message)"))
    return out


def percentile_summary(values: list[float]) -> tuple[str, float]:
    """Highest of p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    ordered = sorted(values)
    for p in (99, 95, 90, 75, 50):
        rank = math.ceil(p / 100 * len(ordered))
        if len(ordered) - rank >= 10:
            return f"p{p}", ordered[rank - 1]
    return "", math.nan


def describe_latencies(values: list[float]) -> str:
    text = f"{len(values)} samples, p50 {statistics.median(values):.4f} s"
    name, tail = percentile_summary(values)
    if name:
        return f"{text}, {name} {tail:.4f} s"
    return f"{text}; no percentile has ten samples beyond it"


def listing(values: list[float]) -> str:
    return ", ".join(f"{v:.4f}" for v in values)


def run_untraced(workload: Workload, seed: int, seconds: float, workdir: Path) -> dict:
    calibrate.kernel_once()  # the first run pays for numpy's lazy set-up
    setups, scaled_setups = [], []
    for _ in range(SETUP_REPEATS):
        elapsed, kernel_s, pool, paths = setup(workload, seed, workdir)
        setups.append(elapsed)
        scaled_setups.append(calibrate.scale(elapsed, kernel_s))

    calls: list[Call] = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        k = len(calls) % len(paths)
        calls.append(timed_call(workload.command, k, paths[k]))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if len(calls) <= len(paths):  # no dataset came round twice; repeat one, untimed
        repeat = timed_call(workload.command, 0, paths[0])
        repeat.timed = False
        calls.append(repeat)

    wrong, notes = check_outputs(calls, pool)
    timed = [c for c in calls if c.timed]
    walls = [c.seconds if c.ok else math.inf for c in timed]
    latencies = [c.scaled_s if c.ok else math.inf for c in timed]
    good_dmus = sum(pool[c.dataset].n for c, bad in zip(calls, wrong) if c.timed and c.ok and not bad)
    records = sum(pool[c.dataset].n for c in calls if c.ok)
    n_wrong = sum(len(bad) for bad in wrong)
    n_failed = sum(not c.ok for c in calls)
    # timings at the reference host speed (see calibrate.py); the summary
    # gives the wall times they were scaled from
    metrics = {
        "call_s.p50": statistics.median(latencies),
        "dmus_per_s": good_dmus / sum(c.scaled_s for c in timed),
        "ops_ok": 1.0 - n_failed / len(calls),
        "outputs_ok": 1.0 - n_wrong / records if records else 1.0,
        "setup_s": statistics.median(scaled_setups),
        "peak_rss_mb": peak_rss_mb,
    }
    return {
        "metrics": metrics,
        "attempted": len(calls),
        "failed": n_failed,
        "correct": n_wrong == 0,
        "notes": notes,
        "failures": failures(calls, pool),
        "summary": {
            "call_s, scaled": describe_latencies(latencies),
            "call_s, wall": describe_latencies(walls),
            "dmus_per_s, wall": f"{good_dmus / sum(c.seconds for c in timed):.4f}",
            "kernel_s": f"median {statistics.median(c.kernel_s for c in timed):.5f}, "
                        f"reference {calibrate.REFERENCE_S}",
            "ops_failed": f"{n_failed} of {len(calls)} calls",
            "outputs_wrong": f"{n_wrong} of {records} DMU records",
            "setup_s, scaled": listing(scaled_setups),
            "setup_s, wall": listing(setups),
        },
    }


def run_traced(workload: Workload, seed: int, seconds: float, workdir: Path,
               spans_path: Path) -> dict:
    _, _, pool, paths = setup(workload, seed, workdir)
    count = min(workload.traced_count(seconds), len(paths))
    tracer = tracing.Tracer()
    calls: list[Call] = []
    plain_walls, traced_walls = [], []
    for k in range(count):
        plain = timed_call(workload.command, k, paths[k])
        traced = traced_call(workload.command, tracer, pool[k], k, paths[k])
        calls += [plain, traced]
        plain_walls.append(plain.seconds if plain.ok else math.inf)
        traced_walls.append(traced.seconds)

    # the first dataset once more under a fresh tracer: every counter must repeat
    again = tracing.Tracer()
    calls.append(traced_call(workload.command, again, pool[0], 0, paths[0]))
    first_spans = [sp for sp in tracer.spans if sp.dataset == pool[0].name]
    repeat_ok = tracing.counters(first_spans) == tracing.counters(again.spans)
    tracer.dump(spans_path)

    wrong, notes = check_outputs(calls, pool)
    if not repeat_ok:
        notes.append(f"{pool[0].name}: counters differ between two traced calls")
    own = tracing.self_times(tracer.spans)
    roots = sum(sp.duration for sp in tracer.spans if sp.parent is None)
    partition_ok = (min(own.values(), default=0.0) >= -1e-9
                    and math.isclose(sum(own.values()), roots, rel_tol=1e-9))
    if not partition_ok:
        notes.append("span self times do not add up to the traced calls")

    metrics = tracing.layer_metrics(tracer.spans, sum(traced_walls))
    metrics["trace.overhead"] = statistics.median(traced_walls) / statistics.median(plain_walls)
    n_failed = sum(not c.ok for c in calls)
    return {
        "metrics": metrics,
        "attempted": len(calls),
        "failed": n_failed,
        "correct": not any(wrong) and repeat_ok and partition_ok,
        "notes": notes,
        "failures": failures(calls, pool),
        "summary": {"traced_datasets": count, "spans": len(tracer.spans)},
    }


def traced_call(command: str, tracer: tracing.Tracer, ds: BenchDataset, k: int,
                path: Path) -> Call:
    tracer.dataset = ds.name
    with tracer.installed():
        t0 = time.perf_counter()
        with tracer.span(tracing.ROOT):
            code, out, err = call_cli(command, path)
        seconds = time.perf_counter() - t0
    return Call(k, seconds, code, out, err)


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    tag = f"{workload.name}-{seed}-{'traced' if trace else 'timed'}"
    workdir = WORK / f"{tag}-{os.getpid()}"
    try:
        if trace:
            result = run_traced(workload, seed, seconds, workdir, WORK / f"spans-{tag}.jsonl")
        else:
            result = run_untraced(workload, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["environment"] = environment()
    record = dict(result, failures=[asdict(f) for f in result["failures"]])
    (WORK / f"run-{tag}.json").write_text(json.dumps(record, indent=1, default=str) + "\n",
                                          encoding="utf-8")
    return result
