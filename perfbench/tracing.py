"""Spans and counters recorded at dea_closest's module boundaries.

The tracer replaces, for the duration of a traced call, the public functions
one pipeline module calls in another, under the name the calling module bound
them to (``dea_closest.report.closest_projection``, ``dea_closest.projection
.solve_milp``, ...).  Nothing under ``src/`` changes, and untraced calls run
the original functions.  A binding a later version of the program no longer
has is skipped, so its counters read zero instead of breaking the benchmark.

Spans are kept in memory; ``Tracer.dump`` writes them out when a run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
import warnings
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

# spans that mark a pipeline layer; time below one of them that belongs to no
# nearer layer (solver calls, model builds) counts towards it
LAYERS = ("data.load", "report.analyze", "efficiency", "projection", "reference_set",
          "returns_to_scale", "report.render")
ROOT = "cli"
LP = "solver.simplex"
MILP = "solver.branch_and_bound"
SOLVER_STATUSES = ("infeasible", "unbounded", "iteration_limit", "node_limit")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    dataset: str | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; ``installed()`` patches the probes in and out."""

    def __init__(self):
        self.spans: list[Span] = []
        self.dataset: str | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sp = Span(len(self.spans), name, time.perf_counter(), float("nan"),
                  self._stack[-1] if self._stack else None, self.dataset)
        self.spans.append(sp)
        self._stack.append(sp.id)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module_name, attr, name, hook in PROBES:
                owner = _resolve(module_name)
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, hook))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                return hook(sp, lambda: fn(*args, **kwargs))
        return traced

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                fh.write(json.dumps(asdict(sp)) + "\n")


def _resolve(dotted: str):
    """Module or class named by ``dotted``, or None when it no longer exists."""
    module_name, _, cls = dotted.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(owner, cls, None) if cls else owner


# A hook runs the wrapped call inside its span and records counters on it.

def _plain(sp: Span, call):
    return call()


def _solve_attrs(sp: Span, call):
    sol = call()
    sp.attrs.update(pivots=int(sol.iterations), nodes=int(sol.nodes), status=sol.status.value)
    return sol


def _projection_attrs(sp: Span, call):
    proj = call()
    sp.attrs["skipped"] = not proj.stages
    return proj


def _rts_attrs(sp: Span, call):
    bounds = call()
    sp.attrs["stages"] = int(bounds.stage_count)
    return bounds


def _borderline_warnings(sp: Span, call):
    """Counts the MCRS borderline-weight warnings; they are not re-emitted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call()
    sp.attrs["borderline_warnings"] = sum("borderline" in str(w.message) for w in caught)
    return result


# (module[:class], attribute, span name, hook)
PROBES = (
    ("dea_closest.report", "load_dataset", "data.load", _plain),
    ("dea_closest.report", "analyze", "report.analyze", _plain),
    ("dea_closest.report:AnalysisReport", "to_json", "report.render", _plain),
    ("dea_closest.report", "evaluate_all", "efficiency", _plain),
    ("dea_closest.report", "closest_projection", "projection", _projection_attrs),
    ("dea_closest.report", "identify_mcrs", "reference_set", _borderline_warnings),
    ("dea_closest.report", "intercept_bounds", "returns_to_scale", _rts_attrs),
    ("dea_closest.projection", "build_stage_program", "projection.build", _plain),
    ("dea_closest.projection", "solve_milp", MILP, _solve_attrs),
    ("dea_closest.projection", "solve_lp", LP, _solve_attrs),
    ("dea_closest.efficiency", "solve_lp", LP, _solve_attrs),
    ("dea_closest.reference_set", "solve_lp", LP, _solve_attrs),
    ("dea_closest.returns_to_scale", "solve_lp", LP, _solve_attrs),
)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration less the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)
    out = {}
    for sp in spans:
        covered = 0.0
        cursor = sp.start
        for child in sorted(children.get(sp.id, ()), key=lambda c: c.start):
            lo, hi = max(child.start, cursor), min(child.end, sp.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[sp.id] = sp.duration - covered
    return out


def layer_of(spans: list[Span]) -> dict[int, str]:
    """Nearest enclosing pipeline layer of every span (ROOT when none)."""
    out: dict[int, str] = {}
    for sp in spans:  # parents are recorded before their children
        if sp.name in LAYERS or sp.parent is None:
            out[sp.id] = sp.name if sp.name in LAYERS else ROOT
        else:
            out[sp.id] = out[sp.parent]
    return out


def layer_times(spans: list[Span]) -> dict[str, float]:
    """Self time summed by layer; the values add up to the root spans' time."""
    own = self_times(spans)
    layer = layer_of(spans)
    totals = dict.fromkeys((ROOT,) + LAYERS, 0.0)
    for sp in spans:
        totals[layer[sp.id]] += own[sp.id]
    return totals


def layer_metrics(spans: list[Span], wall: float) -> dict[str, float]:
    """Per-layer times and solver counters over every span recorded.

    ``wall`` is the wall time of the traced calls as the harness measured
    it.  Pipeline layers are given as shares of it: a layer a workload never
    enters then reads 0 as a share rather than as a time.
    """
    times = layer_times(spans)
    own = self_times(spans)
    layer = layer_of(spans)
    solves = [sp for sp in spans if sp.name in (LP, MILP)]

    def solver_in(name: str, which: str = LP) -> list[Span]:
        return [sp for sp in solves if sp.name == which and layer[sp.id] == name]

    # a span whose call raised has no counters
    def pivots(group: list[Span]) -> int:
        return sum(sp.attrs.get("pivots", 0) for sp in group)

    proj = [sp for sp in spans if sp.name == "projection"]
    solved = [sp.duration for sp in proj if not sp.attrs.get("skipped", False)]
    # with every DMU efficient no projection solves anything; the short-circuit
    # calls are then the projection work there is
    per_dmu = solved or [sp.duration for sp in proj]
    build = sum(sp.duration for sp in spans if sp.name == "projection.build")
    milps = [sp for sp in solves if sp.name == MILP]
    nodes = sum(sp.attrs.get("nodes", 0) for sp in milps)
    rts = [sp for sp in spans if sp.name == "returns_to_scale"]
    total_pivots = pivots(solves)
    solver_s = sum(own[sp.id] for sp in solves)

    m = {
        "projection.share": times["projection"] / wall,
        "projection.build_share": build / times["projection"] if times["projection"] else 0.0,
        "projection.milp_solves": len(solver_in("projection", MILP)),
        "projection.lp_solves": len(solver_in("projection")),
        "projection.polish_pivots": pivots(solver_in("projection")),
        "projection.skipped": len(proj) - len(solved),
        "projection.dmu_s.p50": statistics.median(per_dmu) if per_dmu else 0.0,
        "projection.dmu_s.max": max(per_dmu, default=0.0),
        "solver.branch_and_bound.nodes": nodes,
        "solver.branch_and_bound.nodes_per_milp.max": max(
            (sp.attrs.get("nodes", 0) for sp in milps), default=0),
        "solver.branch_and_bound.pivots_per_node": pivots(milps) / nodes if nodes else 0.0,
        "returns_to_scale.share": times["returns_to_scale"] / wall,
        "returns_to_scale.lp_solves": len(solver_in("returns_to_scale")),
        "returns_to_scale.pivots": pivots(solver_in("returns_to_scale")),
        "returns_to_scale.stage2_share": (sum(sp.attrs.get("stages") == 2 for sp in rts) / len(rts)
                                          if rts else 0.0),
        "efficiency.share": times["efficiency"] / wall,
        "efficiency.lp_solves": len(solver_in("efficiency")),
        "efficiency.pivots": pivots(solver_in("efficiency")),
        "reference_set.share": times["reference_set"] / wall,
        "reference_set.lp_solves": len(solver_in("reference_set")),
        "reference_set.pivots": pivots(solver_in("reference_set")),
        "reference_set.borderline_warnings": sum(
            sp.attrs.get("borderline_warnings", 0) for sp in spans if sp.name == "reference_set"),
        # every simplex run: one per LP, one per branch-and-bound node
        "solver.simplex.solves": sum(1 for sp in solves if sp.name == LP) + nodes,
        "solver.simplex.pivots": total_pivots,
        "solver.simplex.us_per_pivot": 1e6 * solver_s / total_pivots if total_pivots else 0.0,
        "data.load_s": times["data.load"],
        "report.render_s": times["report.render"],
        "report.analyze_self_s": times["report.analyze"],
        "cli.self_s": times[ROOT],
        "trace.wall_s": wall,
        "trace.harness_share": 1.0 - sum(times.values()) / wall,
    }
    for status in SOLVER_STATUSES:
        m[f"solver.status.{status}"] = sum(sp.attrs.get("status") == status for sp in solves)
    return m


# the layer metrics that are measured times; all others are exact counts
TIMED = frozenset((
    "projection.share", "projection.build_share", "projection.dmu_s.p50",
    "projection.dmu_s.max", "returns_to_scale.share", "efficiency.share",
    "reference_set.share", "solver.simplex.us_per_pivot", "data.load_s", "report.render_s",
    "report.analyze_self_s", "cli.self_s", "trace.wall_s", "trace.harness_share"))


def counters(spans: list[Span]) -> dict[str, float]:
    """The deterministic subset of ``layer_metrics`` (the wall time given to it
    only scales the timed ones)."""
    return {k: v for k, v in layer_metrics(spans, 1.0).items() if k not in TIMED}
