"""Command-line front door.

Exit codes: 0 success, 2 validation error, 3 solver limit (a pivot or node
budget ran out), 4 I/O error, 5 analysis error (a model that is feasible by
construction was not).  Each error class in ``errors`` carries its code.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .errors import DeaError
from .report import COMMANDS, RunConfig, run


@functools.cache  # parsing leaves a parser unchanged, so one per process serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dea-closest",
        description="Least-distance DEA benchmarking: closest efficient targets, "
                    "maximal closest reference sets, and closest returns to scale.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", required=True, help="dataset CSV (header: dmu,in:...,out:...)")
    common.add_argument("--priority", default="default",
                        help="comma-separated slack labels, highest priority first, "
                             "or 'default' (all outputs before all inputs)")
    common.add_argument("--tol", type=float, default=None,
                        help="zero threshold for efficiency/membership/RTS sign tests")
    common.add_argument("--max-iterations", type=int, default=None, dest="max_iterations")
    common.add_argument("--max-nodes", type=int, default=None, dest="max_nodes")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--plot-data", default=None, dest="plot_data",
                        help="write frontier/projection plot table to this file "
                             "(single-input single-output datasets only)")

    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "efficiency": "BCC efficiency scores and efficient/inefficient flags",
        "project": "adds the unique closest efficient target of every DMU",
        "mcrs": "adds maximal closest reference sets with intensity weights",
        "rts": "adds (closest) returns-to-scale labels and intercept bounds",
        "report": "everything",
    }
    for cmd in COMMANDS:
        sub.add_parser(cmd, parents=[common], help=descriptions[cmd])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = RunConfig(
            input_path=args.input,
            command=args.command,
            priority_spec=args.priority,
            tol=args.tol,
            max_iterations=args.max_iterations,
            max_nodes=args.max_nodes,
            output_format=args.format,
            plot_data_path=args.plot_data,
        )
        report = run(config)
    except DeaError as exc:
        print(f"error: {exc.label}{exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4

    text = report.to_json() if config.output_format == "json" else report.to_csv()
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
