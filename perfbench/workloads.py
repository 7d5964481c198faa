"""Seeded dataset generators for the benchmark workloads.

Every dataset is a pure function of (workload, seed, index): dataset
``index`` of a run draws from ``numpy.random.default_rng([seed, index])``, so
the same seed always gives byte-identical CSV files.  The program under test
only ever sees those files.

Datasets have a known frontier.  Frontier DMUs have inputs uniform[1, 100]
and an output vector of Euclidean length 10*sqrt(sum of inputs) in a random
positive direction.  That surface is strictly concave, so no convex
combination of frontier DMUs reaches another one and every one is
BCC-efficient.  Dominated DMUs are convex mixes of three frontier DMUs with
every input inflated and every output shrunk by at least 5%, so they are
inefficient.  Fixing the number of efficient DMUs fixes the size of the
projection models, which keeps the work per dataset, and so the timings,
steady from seed to seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# dataset index used for the small warm-up dataset of each run
WARMUP_INDEX = 2**31 - 1


@dataclass(frozen=True)
class Workload:
    """Shape of the datasets of one workload and how many a run uses.

    ``command`` is the CLI subcommand each operation runs.  ``pool`` datasets
    are generated per run and the timed loop cycles through them.  A traced run covers a fixed prefix of ``traced_per_s`` datasets per
    second of ``--seconds``, so its counters do not depend on machine speed.
    """

    name: str
    why: str
    command: str
    m: int
    s: int
    frontier: int
    dominated: int
    column_scales: bool
    pool: int
    traced_per_s: float

    @property
    def n(self) -> int:
        return self.frontier + self.dominated

    def traced_count(self, seconds: float) -> int:
        return max(1, int(seconds * self.traced_per_s))


WORKLOADS = {
    w.name: w for w in (
        # `project`, not `report`: on these datasets the MCRS step of `report`
        # fails for about one dataset in seven (see bnb-report)
        Workload("proj-bnb",
                 "project on (2,2) n=12, 6 DMUs on a known frontier and 6 below it; "
                 "projection branch-and-bound does nearly all the work",
                 "project", m=2, s=2, frontier=6, dominated=6, column_scales=False,
                 pool=64, traced_per_s=0.3),
        Workload("frontier-rts",
                 "report on (3,3) n=50, every DMU efficient; projection is bypassed and "
                 "the n+2-row returns-to-scale LPs dominate",
                 "report", m=3, s=3, frontier=50, dominated=0, column_scales=False,
                 pool=32, traced_per_s=0.18),
        # The two below are not in BENCHMARK.json: calls fail on them today,
        # and the benchmark's workloads must run without failures.
        Workload("units",
                 "project on proj-bnb data with every column rescaled by 10^k, k in "
                 "-2..4; the scale defects make some calls fail",
                 "project", m=2, s=2, frontier=6, dominated=6, column_scales=True,
                 pool=64, traced_per_s=0.3),
        Workload("bnb-report",
                 "report on proj-bnb data; the MCRS support LP finds no weights for "
                 "some targets and the call fails",
                 "report", m=2, s=2, frontier=6, dominated=6, column_scales=False,
                 pool=64, traced_per_s=0.3),
    )
}


@dataclass(frozen=True)
class BenchDataset:
    """One generated dataset: the CSV text and the exact values it holds."""

    name: str
    seed: int
    index: int
    x: np.ndarray
    y: np.ndarray
    efficient: tuple[bool, ...]
    csv: str

    @property
    def n(self) -> int:
        return self.x.shape[0]


def frontier_points(rng: np.random.Generator, k: int, m: int, s: int
                    ) -> tuple[np.ndarray, np.ndarray]:
    """k DMUs on the surface ||y||_2 = 10 sqrt(sum x); all BCC-efficient."""
    x = rng.uniform(1.0, 100.0, (k, m))
    d = rng.uniform(0.05, 1.0, (k, s))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    return x, d * (10.0 * np.sqrt(x.sum(axis=1)))[:, None]


def dominated_points(rng: np.random.Generator, fx: np.ndarray, fy: np.ndarray, k: int
                     ) -> tuple[np.ndarray, np.ndarray]:
    """k DMUs strictly dominated by a convex mix of three frontier DMUs."""
    picks = np.array([rng.choice(fx.shape[0], 3, replace=False) for _ in range(k)])
    w = rng.dirichlet(np.ones(3), k)
    x = np.einsum("ij,ijk->ik", w, fx[picks]) * rng.uniform(1.05, 1.5, (k, 1))
    y = np.einsum("ij,ijk->ik", w, fy[picks]) * rng.uniform(0.6, 0.95, (k, 1))
    return x, y


def make_dataset(workload: Workload, seed: int, index: int) -> BenchDataset:
    rng = np.random.default_rng([seed, index])
    frontier, dominated = workload.frontier, workload.dominated
    if index == WARMUP_INDEX:  # small, but through every layer
        frontier, dominated = 3, min(dominated, 2)
    x, y = frontier_points(rng, frontier, workload.m, workload.s)
    if dominated:
        dx, dy = dominated_points(rng, x, y, dominated)
        x, y = np.vstack([x, dx]), np.vstack([y, dy])
    order = rng.permutation(frontier + dominated)
    x, y = np.round(x[order], 3), np.round(y[order], 3)
    if workload.column_scales:
        x = x * 10.0 ** rng.integers(-2, 5, workload.m)
        y = y * 10.0 ** rng.integers(-2, 5, workload.s)
    efficient = tuple(bool(k < frontier) for k in order)
    return BenchDataset(f"{workload.name}-{seed}-{index}", seed, index, x, y, efficient,
                        to_csv(x, y))


def to_csv(x: np.ndarray, y: np.ndarray) -> str:
    """CSV in the program's input format; repr() round-trips every float."""
    header = (["dmu"] + [f"in:x{i + 1}" for i in range(x.shape[1])]
              + [f"out:y{r + 1}" for r in range(y.shape[1])])
    lines = [",".join(header)]
    for k in range(x.shape[0]):
        values = (*x[k], *y[k])
        lines.append(",".join([f"U{k + 1}"] + [repr(float(v)) for v in values]))
    return "\n".join(lines) + "\n"


def make_pool(workload: Workload, seed: int) -> list[BenchDataset]:
    return [make_dataset(workload, seed, i) for i in range(workload.pool)]


def write_csvs(datasets: list[BenchDataset], directory: Path) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for ds in datasets:
        path = directory / f"{ds.name}.csv"
        path.write_text(ds.csv, encoding="utf-8")
        paths.append(path)
    return paths
