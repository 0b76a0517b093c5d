"""Command line entry points.

Subcommands mirror the library stages: ``generate`` (dataset + allocation),
``moments`` (exact matrices), ``calibrate`` (solve targets), ``associate``
(empirical measure matrices), ``report`` (group summary + comparison), and
``pipeline`` (everything, with a manifest).  Exit codes: 0 success, 2 bad
spec or config, 3 infeasible calibration target.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from .association import association_matrix
from .generator import build_spec, generate
from .model import (
    InfeasibleTargetError,
    RunConfig,
    SpecError,
    VariableDomain,
    load_config,
)
from .moments import moment_matrices
from .report import (
    build_run,
    compare_matrices,
    run_pipeline,
    write_allocation,
    write_calibration_report,
    write_dataset_csv,
    write_group_summary,
    write_long_format,
    write_matrix_csv,
)


def _load(args) -> RunConfig:
    config = load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    return config


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_generate(args) -> int:
    built = build_spec(_load(args))
    dataset = generate(built.spec, threads=args.threads, shuffle=args.shuffle)
    out = _out_dir(args)
    write_dataset_csv(out / "dataset.csv", dataset)
    write_allocation(out / "allocation.txt", dataset)
    print(f"wrote {out}/dataset.csv ({dataset.subjects} x {dataset.values.shape[1]})")
    return 0


def _cmd_moments(args) -> int:
    built = build_spec(_load(args))
    matrices = moment_matrices(built.spec.profile, built.spec.clusters)
    names = tuple(v.name for v in built.spec.profile.variables)
    out = _out_dir(args)
    write_matrix_csv(out / "theoretical_covariance.csv", matrices.covariance, names)
    write_matrix_csv(out / "theoretical_correlation.csv", matrices.correlation, names)
    print(f"wrote theoretical matrices for {len(names)} variables to {out}")
    return 0


def _cmd_calibrate(args) -> int:
    config = _load(args)
    if config.groups is None:
        raise SpecError("calibrate: config must declare groups")
    result = build_spec(config).calibration
    out = _out_dir(args)
    write_calibration_report(out / "calibration_report.csv", result)
    print(f"calibrated {len(result.groups)} groups ({result.family}) to {out}")
    return 0


def _read_csv(path: str) -> tuple[np.ndarray, tuple[VariableDomain, ...]]:
    """Headered integer CSV to values + interval domains over observed levels."""
    with open(path) as f:
        header = f.readline().strip()
        # Counting the lines first lets loadtxt allocate the result once
        # instead of growing it, which would copy it at its full size.
        lines, last = 0, "\n"
        for chunk in iter(lambda: f.read(1 << 16), ""):
            lines += chunk.count("\n")
            last = chunk[-1]
    if not header:
        raise SpecError(f"associate: {path} is empty")
    names = header.split(",")
    try:
        with warnings.catch_warnings():
            # A header-only file is reported below, not as a numpy warning.
            warnings.simplefilter("ignore", UserWarning)
            values = np.loadtxt(
                path, dtype=np.int64, delimiter=",", skiprows=1, ndmin=2, comments=None,
                max_rows=lines + (last != "\n"),
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
    if args.data is not None:
        values, variables = _read_csv(args.data)
        source = (values, variables)
    else:
        built = build_spec(_load(args))
        source = generate(built.spec, threads=args.threads)
    matrix = association_matrix(
        source, args.measure, variant=args.variant, symmetrize=args.symmetrize
    )
    out = _out_dir(args)
    write_matrix_csv(out / f"{args.measure}_matrix.csv", matrix.values, matrix.names)
    write_long_format(out / f"{args.measure}_long.csv", matrix)
    print(f"wrote {args.measure} matrix ({matrix.dimension} x {matrix.dimension}) to {out}")
    return 0


def _cmd_report(args) -> int:
    result = build_run(_load(args), threads=args.threads, shuffle=args.shuffle)
    out = _out_dir(args)
    names = tuple(v.name for v in result.built.spec.profile.variables)
    from .association import AssociationMatrix

    theoretical = AssociationMatrix(result.moments.correlation, names, "pearson")
    comparison = compare_matrices(theoretical, result.sample_pearson)
    (out / "comparison.json").write_text(
        json.dumps(
            {
                "max_abs_gap": comparison.max_abs_gap,
                "mean_abs_gap": comparison.mean_abs_gap,
                "sign_agreement": comparison.sign_agreement,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    if result.summaries is not None:
        write_group_summary(out / "group_summary.csv", result.summaries)
    print(f"wrote comparison report to {out}")
    return 0


def _cmd_pipeline(args) -> int:
    paths = run_pipeline(
        args.config,
        args.out,
        seed=args.seed,
        threads=args.threads,
        shuffle=args.shuffle,
    )
    print(f"wrote {len(paths)} artifacts to {args.out}")
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

    p = sub.add_parser("generate", help="write dataset.csv and allocation.txt")
    common(p)
    p.add_argument("--shuffle", action="store_true", help="shuffle subject order")
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("moments", help="write exact covariance/correlation matrices")
    common(p)
    p.set_defaults(handler=_cmd_moments)

    p = sub.add_parser("calibrate", help="solve group targets, write the report")
    common(p)
    p.set_defaults(handler=_cmd_calibrate)

    p = sub.add_parser("associate", help="pairwise association matrix of a dataset")
    common(p, config_required=False)
    p.add_argument("--data", default=None, help="headered integer CSV to analyse")
    p.add_argument(
        "--measure", choices=("v", "vcc", "tauc", "pearson"), default="pearson"
    )
    p.add_argument("--variant", choices=("paper", "standard"), default="paper")
    p.add_argument("--symmetrize", action="store_true", help="average the two vcc directions")
    p.set_defaults(handler=_cmd_associate)

    p = sub.add_parser("report", help="theoretical vs sample comparison and group summary")
    common(p)
    p.add_argument("--shuffle", action="store_true", help="shuffle subject order")
    p.set_defaults(handler=_cmd_report)

    p = sub.add_parser("pipeline", help="run everything and write a manifest")
    common(p)
    p.add_argument("--shuffle", action="store_true", help="shuffle subject order")
    p.set_defaults(handler=_cmd_pipeline)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except InfeasibleTargetError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except SpecError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
