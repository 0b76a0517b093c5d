"""Command line entry points.

Each config subcommand writes a set of artifact files of one staged run
(``report.RunResult``); ``pipeline`` writes the full set and a manifest.
``associate`` writes measure matrices of a CSV file or of a run's dataset.
Exit codes: 0 success, 2 bad spec, config or input file, 3 infeasible
calibration target.
"""

from __future__ import annotations

import argparse
import codecs
import functools
import io
import json
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

from .association import MEASURES, VARIANTS, LevelPositions, _level_positions, association_matrix
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


def _digit_positions(body: bytes, width: int) -> tuple[list[list[int]], np.ndarray] | None:
    """``association._level_positions`` of a body of ``d,d,...,d\\n`` lines ``width`` wide, or None.

    Each field and the byte after it, read as one little-endian uint16 less
    the pair ``0,`` (``0\\n`` in the last column), is the field's digit
    0..9 exactly when the field is one digit and the byte its separator; any
    other body gives None.  Bit d of a column's presence mask is set where
    digit d occurs in it, so the masks hold every column's levels, and a
    cell's position is its digit less its column's lowest one; only a column
    with a gap among its digits (0 and 2, say) looks its cells up.
    """
    if not body or len(body) % (2 * width):
        return None
    pairs = np.full(width, ord(",") << 8 | ord("0"), np.uint16)
    pairs[-1] = ord("\n") << 8 | ord("0")
    codes = np.subtract(np.frombuffer(body, "<u2").reshape(-1, width), pairs)
    if codes.max() > 9:
        return None
    masks = np.bitwise_or.reduce(np.left_shift(np.uint16(1), codes), axis=0).tolist()
    levels = [[d for d in range(10) if mask >> d & 1] for mask in masks]
    lowest = np.array([column[0] for column in levels], np.uint16)
    positions = np.subtract(codes, lowest, dtype=np.uint8, casting="unsafe")
    for p, column in enumerate(levels):
        if len(column) <= column[-1] - column[0]:
            rank = np.zeros(10, np.uint8)
            rank[column] = range(len(column))
            positions[:, p] = rank[codes[:, p]]
    return levels, positions


def _read_csv(path: str) -> LevelPositions:
    """Headered integer CSV to level positions over interval domains of the observed levels.

    The file is read once, as bytes.  Column names must be unique, as in a
    config.  A leading byte-order mark is not part of the first name.  When
    every line after the header is one digit per field, ``d,d,...,d\\n``
    as ``write_dataset_csv`` writes SNP and binary codes, the positions come
    from the bytes (``_digit_positions``) and only the header is decoded.
    Any other file (CRLF or blank lines, no final newline, codes of more
    than one digit or negative, spaces) is decoded whole and parsed by
    ``np.loadtxt``, and its codes go through ``association._level_positions``
    over their observed levels, the map that looks a ``(codes, variables)``
    pair up over declared ones.  Both give the same positions and levels.
    """
    data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    head, _, body = data.partition(b"\n")
    # A carriage return in the first line would end the header early.
    digits = None if b"\r" in head else _digit_positions(body, head.count(b",") + 1)
    # A digit body is ASCII, so decoding only the header and its newline
    # fails where decoding the whole file would, with the same message.
    text = data if digits is None else data[: len(head) + 1]
    try:
        # Universal newlines, as a text-mode file reads them.
        lines = io.StringIO(text.decode("utf-8"), newline=None)
    except UnicodeDecodeError as err:
        raise SpecError(f"associate: {path} is not UTF-8 ({err})") from None
    header = lines.readline().strip()
    if not header:
        raise SpecError(f"associate: {path} is empty")
    names = header.split(",")
    for name, count in Counter(names).items():
        if count > 1:
            raise SpecError(f"associate: {path}: column name {name!r} is used {count} times")
    if digits is None:
        try:
            with warnings.catch_warnings():
                # A header-only file is reported below, not as a numpy warning.
                warnings.simplefilter("ignore", UserWarning)
                values = np.loadtxt(lines, dtype=np.int64, delimiter=",", ndmin=2, comments=None)
        except ValueError as err:
            raise SpecError(f"associate: {path} is not an integer CSV ({err})")
        if len(values) == 0:
            raise SpecError(f"associate: {path} has no data rows")
        if values.shape[1] != len(names):
            raise SpecError(f"associate: {path} rows do not match the header")
        digits = _level_positions(values)
    levels, positions = digits
    variables = tuple(
        VariableDomain(name, tuple(column), "interval") for name, column in zip(names, levels)
    )
    return LevelPositions(positions, variables)


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


# One parser per process, shared by every call, so no caller may change it.
# It is a graph of about 1000 objects in reference cycles, which would
# otherwise be left for the cyclic collector on every call.
@functools.cache
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
    p.add_argument("--measure", choices=MEASURES, default="pearson")
    p.add_argument("--variant", choices=VARIANTS, default="paper")
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
