"""Pipeline orchestration and machine-readable reporting.

A report is a pure function of (dataset, run configuration): DMU order, key
order, and numeric rendering (9 significant digits, round-half-even) are
all fixed, so identical runs produce byte-identical output except for the
isolated timing field.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .data import Dataset, PriorityRanking, load_dataset, priority_from_labels
from .efficiency import EfficiencyResult, Frontier, evaluate_all
from .errors import ValidationError, failure_context
from .projection import Projection, closest_projection
from .reference_set import McrsResult, identify_mcrs
from .returns_to_scale import RtsBounds, RtsLabel, classify_rts, intercept_bounds
from .solver import SolverConfig

COMMANDS = ("efficiency", "project", "mcrs", "rts", "report")
SCHEMA_VERSION = "2"


@dataclass(frozen=True)
class RunConfig:
    """Everything a run depends on besides the dataset itself."""

    input_path: str
    command: str = "report"
    priority_spec: str = "default"
    tol: float | None = None
    max_iterations: int | None = None
    max_nodes: int | None = None
    output_format: str = "json"
    plot_data_path: str | None = None

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValidationError(f"unknown command {self.command!r}")
        if self.output_format not in ("json", "csv"):
            raise ValidationError(f"unknown output format {self.output_format!r}")
        if not self.input_path:
            raise ValidationError("input path must not be empty")
        if self.tol is not None and not 0.0 < self.tol < np.inf:
            raise ValidationError(f"--tol must be a positive finite number, got {self.tol}")
        for flag, limit in (("--max-iterations", self.max_iterations),
                            ("--max-nodes", self.max_nodes)):
            if limit is not None and limit <= 0:
                raise ValidationError(f"{flag} must be a positive integer, got {limit}")

    def solver_config(self) -> SolverConfig:
        kwargs = {}
        if self.tol is not None:
            kwargs["zero_tol"] = self.tol
        if self.max_iterations is not None:
            kwargs["max_iterations"] = self.max_iterations
        if self.max_nodes is not None:
            kwargs["max_nodes"] = self.max_nodes
        return SolverConfig(**kwargs)


@dataclass
class DmuAnalysis:
    """All results computed for one DMU (later stages may be None, depending
    on the subcommand)."""

    name: str
    efficiency: EfficiencyResult
    projection: Projection | None = None
    mcrs: McrsResult | None = None
    rts_bounds: RtsBounds | None = None
    rts_label: RtsLabel | None = None


@dataclass
class AnalysisReport:
    """Per-DMU analysis records plus run metadata, renderable as JSON or CSV."""

    dataset: Dataset
    priority: PriorityRanking
    config: RunConfig
    records: list[DmuAnalysis]
    timings: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        ds = self.dataset
        return {
            "schema_version": SCHEMA_VERSION,
            "command": self.config.command,
            "config": {
                "input": self.config.input_path,
                "priority": list(self.priority.labels(ds)),
                "zero_tol": _num(self.config.solver_config().zero_tol),
                "format": self.config.output_format,
            },
            "dataset": {
                "n": ds.n, "m": ds.m, "s": ds.s,
                "input_names": list(ds.input_names),
                "output_names": list(ds.output_names),
            },
            "results": [self._record_dict(rec) for rec in self.records],
            "meta": {
                "generator": "dea-closest",
                "version": __version__,
                "timings": {k: round(v, 6) for k, v in self.timings.items()},
            },
        }

    def _record_dict(self, rec: DmuAnalysis) -> dict:
        ds = self.dataset
        out: dict = {
            "name": rec.name,
            "efficiency": {
                "theta": _num(rec.efficiency.theta),
                "efficient": rec.efficiency.is_efficient,
            },
        }
        if rec.projection is not None:
            labels = ds.slack_labels()
            out["projection"] = {
                "target_inputs": [_num(v) for v in rec.projection.target_inputs],
                "target_outputs": [_num(v) for v in rec.projection.target_outputs],
                "slacks": {labels[i]: _num(rec.projection.slacks[i])
                           for i in range(ds.m + ds.s)},
            }
        if rec.mcrs is not None:
            out["mcrs"] = {
                "members": [{"name": ds.names[j], "weight": _num(w)}
                            for j, w in zip(rec.mcrs.members, _member_weights(rec.mcrs))],
            }
        if rec.rts_label is not None:
            out["rts"] = {
                "label": rec.rts_label.value,
                "intercept_upper": _num(rec.rts_bounds.upper),
                "intercept_lower": _num(rec.rts_bounds.lower),
                "stages": rec.rts_bounds.stage_count,
            }
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, allow_nan=False) + "\n"

    def to_csv(self) -> str:
        ds = self.dataset
        labels = ds.slack_labels()
        header = ["name", "theta", "efficient"]
        has_proj = any(r.projection is not None for r in self.records)
        has_mcrs = any(r.mcrs is not None for r in self.records)
        has_rts = any(r.rts_label is not None for r in self.records)
        if has_proj:
            header += [f"target_in:{nm}" for nm in ds.input_names]
            header += [f"target_out:{nm}" for nm in ds.output_names]
            header += [f"slack_{lb}" for lb in labels]
        if has_mcrs:
            header += ["mcrs", "mcrs_weights"]
        if has_rts:
            header += ["rts", "intercept_lower", "intercept_upper"]

        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        for rec in self.records:
            row: list[str] = [rec.name, _text(rec.efficiency.theta),
                              str(rec.efficiency.is_efficient).lower()]
            if has_proj:
                p = rec.projection
                row += [_text(v) for v in p.target_inputs]
                row += [_text(v) for v in p.target_outputs]
                row += [_text(v) for v in p.slacks]
            if has_mcrs:
                names = [ds.names[j] for j in rec.mcrs.members]
                weights = _member_weights(rec.mcrs)
                row += [";".join(names), ";".join(_text(w) for w in weights)]
            if has_rts:
                row += [rec.rts_label.value,
                        _text(rec.rts_bounds.lower), _text(rec.rts_bounds.upper)]
            writer.writerow(row)
        return out.getvalue()


def _member_weights(mcrs: McrsResult) -> list[float]:
    """The weight of each MCRS member, in member order."""
    by_index = dict(zip(mcrs.columns, mcrs.lambda_max))
    return [float(by_index[j]) for j in mcrs.members]


def _text(v) -> str:
    """9 significant digits; infinities spelled "+inf" and "-inf"."""
    v = float(v)
    if np.isinf(v):
        return "+inf" if v > 0 else "-inf"
    return f"{v:.9g}"


def _num(v) -> float | str:
    """JSON-ready number: 9 significant digits; infinities become strings."""
    text = _text(v)
    return text if text.endswith("inf") else float(text)


def analyze(dataset: Dataset, config: RunConfig, priority: PriorityRanking | None = None,
            ) -> AnalysisReport:
    """Run the pipeline stages the subcommand asks for, in dataset order."""
    cfg = config.solver_config()
    if priority is None:
        priority = priority_from_labels(config.priority_spec, dataset)
    level = COMMANDS.index(config.command)
    need_projection = level >= 1 or config.plot_data_path is not None

    t0 = time.perf_counter()
    eff = evaluate_all(dataset, cfg)
    frontier = Frontier(dataset, tuple(r.dmu for r in eff if r.is_efficient))

    records: list[DmuAnalysis] = []
    for o in range(dataset.n):
        rec = DmuAnalysis(dataset.names[o], eff[o])
        if need_projection:
            rec.projection = closest_projection(frontier, o, priority, cfg)
        if level >= 3:
            with failure_context(f"returns to scale of DMU {rec.name!r}"):
                rec.rts_bounds = intercept_bounds(dataset, rec.projection.target_inputs,
                                                  rec.projection.target_outputs, cfg)
            rec.rts_label = classify_rts(rec.rts_bounds, cfg)
        if level >= 2:
            # the BCC prices at an efficient DMU, and those of its intercept
            # LPs where they were solved, can spare the support LP
            supports = (eff[o].priced_out, *(rec.rts_bounds.supports if level >= 3 else ()))
            rec.mcrs = identify_mcrs(frontier, rec.projection, cfg, supports=supports)
        records.append(rec)

    report = AnalysisReport(dataset, priority, config, records)
    report.timings["total_seconds"] = time.perf_counter() - t0
    return report


def emit_plot_data(report: AnalysisReport, path: str) -> None:
    """Frontier polyline, observed points, and projection arrows as CSV.

    Only defined for single-input single-output datasets, where the
    efficient frontier is a polyline over the efficient DMUs ordered by
    input level.
    """
    ds = report.dataset
    if ds.m != 1 or ds.s != 1:
        raise ValidationError("plot data requires exactly one input and one output "
                              f"(dataset has {ds.m} and {ds.s})")
    x, y = ds.x[:, 0], ds.y[:, 0]

    def row(kind: str, k: int, target_x: str = "", target_y: str = "") -> tuple[str, ...]:
        return (kind, ds.names[k], _text(x[k]), _text(y[k]), target_x, target_y)

    efficient = [k for k, rec in enumerate(report.records) if rec.efficiency.is_efficient]
    rows = [("kind", "name", "x", "y", "target_x", "target_y")]
    rows += [row("frontier", k) for k in sorted(efficient, key=lambda k: (x[k], y[k]))]
    rows += [row("observed", k) for k in range(ds.n)]
    rows += [row("projection", rec.projection.dmu, _text(rec.projection.target_inputs[0]),
                 _text(rec.projection.target_outputs[0]))
             for rec in report.records
             if not rec.efficiency.is_efficient and rec.projection is not None]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerows(rows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(out.getvalue())


def run(config: RunConfig) -> AnalysisReport:
    """Load, analyze, optionally emit plot data; raises typed errors for the CLI."""
    dataset = load_dataset(config.input_path)
    report = analyze(dataset, config)
    if config.plot_data_path is not None:
        emit_plot_data(report, config.plot_data_path)
        if COMMANDS.index(config.command) < 1:
            for rec in report.records:  # projections were only computed for the plot
                rec.projection = None
    return report
