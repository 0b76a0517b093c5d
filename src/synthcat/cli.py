"""Command line entry points.

Each config subcommand writes a set of artifact files of one staged run
(``report.RunResult``); ``pipeline`` writes the full set and a manifest.
``associate`` writes measure matrices of a CSV file or of a run's dataset.
Exit codes: 0 success, 2 bad spec, config or input file, 3 infeasible
calibration target.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

import numpy as np

from .association import association_matrix
from .model import InfeasibleTargetError, SpecError, VariableDomain
from .report import RunResult, run_pipeline, write_artifacts, write_association

# The artifact files each subcommand writes; ``report.ARTIFACTS`` knows
# which stages of the run feed each one.  ``pipeline`` is ``run_pipeline``.
SUBCOMMAND_ARTIFACTS = {
    "generate": ("dataset.csv", "allocation.txt"),
    "moments": ("theoretical_covariance.csv", "theoretical_correlation.csv"),
    "calibrate": ("calibration_report.csv",),
    "report": ("comparison.json", "group_summary.csv"),
}


def _run(args) -> RunResult:
    return RunResult(args.config, args.threads, getattr(args, "shuffle", False), args.seed)


def _cmd_run(args) -> int:
    if args.command == "pipeline":
        paths = run_pipeline(args.config, args.out, args.seed, args.threads, args.shuffle)
        print(f"wrote {len(paths)} artifacts to {args.out}")
        return 0
    run = _run(args)
    paths = write_artifacts(run, args.out, SUBCOMMAND_ARTIFACTS[args.command])
    shape = f"{run.built.spec.clusters.subjects} x {len(run.names)}"
    print(f"wrote {', '.join(paths)} ({shape}) to {args.out}")
    return 0


def _read_csv(path: str) -> tuple[np.ndarray, tuple[VariableDomain, ...]]:
    """Headered integer CSV to values + interval domains over observed levels."""
    try:
        with open(path, encoding="utf-8") as f:
            header = f.readline().strip()
            # Counting the lines first lets loadtxt allocate the result once
            # instead of growing it, which would copy it at its full size.
            lines, last = 0, "\n"
            for chunk in iter(lambda: f.read(1 << 16), ""):
                lines += chunk.count("\n")
                last = chunk[-1]
    except UnicodeDecodeError as err:
        raise SpecError(f"associate: {path} is not UTF-8 ({err})") from None
    if not header:
        raise SpecError(f"associate: {path} is empty")
    names = header.split(",")
    try:
        with warnings.catch_warnings():
            # A header-only file is reported below, not as a numpy warning.
            warnings.simplefilter("ignore", UserWarning)
            values = np.loadtxt(
                path, dtype=np.int64, delimiter=",", skiprows=1, ndmin=2, comments=None,
                max_rows=lines + (last != "\n"), encoding="utf-8",
            )
    except ValueError as err:
        raise SpecError(f"associate: {path} is not an integer CSV ({err})")
    if len(values) == 0:
        raise SpecError(f"associate: {path} has no data rows")
    if values.shape[1] != len(names):
        raise SpecError(f"associate: {path} rows do not match the header")
    variables = tuple(
        VariableDomain(name, tuple(int(x) for x in np.unique(values[:, p])), "interval")
        for p, name in enumerate(names)
    )
    return values, variables


def _cmd_associate(args) -> int:
    if (args.data is None) == (args.config is None):
        raise SpecError("associate: need exactly one of --data or --config")
    source = _read_csv(args.data) if args.data is not None else _run(args).dataset
    matrix = association_matrix(
        source, args.measure, variant=args.variant, symmetrize=args.symmetrize
    )
    write_association(args.out, matrix)
    print(f"wrote {args.measure} matrix ({matrix.dimension} x {matrix.dimension}) to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="synthcat",
        description="Synthetic categorical datasets with a known subject partition",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, config_required: bool = True) -> None:
        p.add_argument("--config", required=config_required, help="JSON config path")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--threads", type=int, default=1, help="generation threads")

    def config_command(name: str, about: str, shuffle: bool) -> None:
        p = sub.add_parser(name, help=about)
        common(p)
        if shuffle:
            p.add_argument("--shuffle", action="store_true", help="shuffle subject order")
        p.set_defaults(handler=_cmd_run)

    config_command("generate", "write dataset.csv and allocation.txt", shuffle=True)
    config_command("moments", "write exact covariance/correlation matrices", shuffle=False)
    config_command("calibrate", "solve group targets, write the report", shuffle=False)

    p = sub.add_parser("associate", help="pairwise association matrix of a dataset")
    common(p, config_required=False)
    p.add_argument("--data", default=None, help="headered integer CSV to analyse")
    p.add_argument(
        "--measure", choices=("v", "vcc", "tauc", "pearson"), default="pearson"
    )
    p.add_argument("--variant", choices=("paper", "standard"), default="paper")
    p.add_argument("--symmetrize", action="store_true", help="average the two vcc directions")
    p.set_defaults(handler=_cmd_associate)

    config_command("report", "theoretical vs sample comparison and group summary", shuffle=True)
    config_command("pipeline", "run everything and write a manifest", shuffle=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except InfeasibleTargetError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (SpecError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
