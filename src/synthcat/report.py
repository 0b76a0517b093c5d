"""Pipeline assembly: one staged run, its artifact files, and the manifest.

A run (``RunResult``) takes a config through lazy stages: the validated
spec, the dataset, the exact moment matrices, the sample moments (one pass),
per-group summaries of target vs theoretical vs sample dependence, and the
theory-vs-sample comparison.  ``ARTIFACTS`` says which stages feed which
file.  ``run_pipeline`` writes them plus a manifest that embeds the config
and enough version and hash information that the whole run can be
reproduced and verified bit for bit from the manifest alone.  What
``write_dataset_csv`` writes, ``read_dataset_csv`` reads back.
"""

from __future__ import annotations

import codecs
import hashlib
import io
import json
import math
import sys
import warnings
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__, association
from .association import (AssociationMatrix, LevelPositions, _cast_blocks, _consecutive,
                          _level_positions, _lookup_blocks, sample_moments)
from .calibration import CalibrationResult
from .generator import BuiltSpec, build_spec, generate
from .model import (
    Dataset,
    GroupStructure,
    ReproductionError,
    SpecError,
    VariableDomain,
    _short,
    checked_seed,
    load_config,
)
from .moments import MomentMatrices, moment_matrices


def within_group_averages(matrix: AssociationMatrix, groups: GroupStructure) -> list[float]:
    """Mean off-diagonal value inside each group's diagonal block.

    Groups own consecutive columns in declaration order, noise columns
    (never part of a group) trail behind and are ignored.  A singleton
    group has no off-diagonal cells; its average is NaN.
    """
    expected = groups.variable_count
    if matrix.dimension not in (expected, expected + groups.noise_count):
        raise SpecError(
            f"group summary: matrix dimension {matrix.dimension} does not cover "
            f"{expected} grouped columns"
        )
    out = []
    start = 0
    for size in groups.sizes:
        block = matrix.values[start : start + size, start : start + size]
        if size < 2:
            out.append(math.nan)
        else:
            off = ~np.eye(size, dtype=bool)
            out.append(float(block[off].mean()))
        start += size
    return out


@dataclass(frozen=True)
class GroupSummary:
    """One group's row in the Table-3-style report."""

    group: int
    size: int
    target_kind: str | None
    target_value: float | None
    theoretical: float
    sample: float

    @property
    def gap(self) -> float:
        return abs(self.sample - self.theoretical)


def summarize_groups(
    groups: GroupStructure,
    theoretical: MomentMatrices,
    sample: MomentMatrices,
    names: tuple[str, ...],
) -> list[GroupSummary]:
    """Per-group theoretical and sample averages, side by side.

    Each group is read on its target's scale, covariance or correlation
    (correlation without targets); ``names`` label the moment matrices' columns.
    """
    targets = groups.targets or (None,) * groups.group_count
    kinds = [target.kind if target else "correlation" for target in targets]
    averages = {}
    for kind in dict.fromkeys(kinds):
        theo, samp = (AssociationMatrix(getattr(m, kind), names, kind) for m in (theoretical, sample))
        averages[kind] = within_group_averages(theo, groups), within_group_averages(samp, groups)
    return [
        GroupSummary(v + 1, groups.sizes[v], target and target.kind, target and target.value,
                     averages[kind][0][v], averages[kind][1][v])
        for v, (target, kind) in enumerate(zip(targets, kinds))
    ]


@dataclass(frozen=True)
class ComparisonReport:
    """Cellwise gaps between a theoretical and a sample matrix.

    Gaps cover every cell where both sides are finite.  ``sign_agreement``
    is the share of such off-diagonal cells with |theoretical| > 1e-12 (zero
    and its round-off have no sign) that the sample matches in sign, or NaN.
    """

    max_abs_gap: float
    mean_abs_gap: float
    sign_agreement: float


def compare_matrices(theoretical: AssociationMatrix, sample: AssociationMatrix) -> ComparisonReport:
    if theoretical.values.shape != sample.values.shape:
        raise SpecError("compare: matrix dimensions differ")
    gaps = np.abs(theoretical.values - sample.values)
    finite = np.isfinite(theoretical.values) & np.isfinite(sample.values)
    off = ~np.eye(theoretical.values.shape[0], dtype=bool)
    signed = finite & off & (np.abs(theoretical.values) > 1e-12)
    agree = np.sign(theoretical.values[signed]) == np.sign(sample.values[signed])
    return ComparisonReport(
        max_abs_gap=float(gaps[finite].max()) if finite.any() else math.nan,
        mean_abs_gap=float(gaps[finite].mean()) if finite.any() else math.nan,
        sign_agreement=float(agree.mean()) if signed.any() else math.nan,
    )


@dataclass(frozen=True)
class RunResult:
    """The stages of one run, each computed on first use and then kept.

    ``source`` is a config dict or a JSON path; ``config`` is its canonical
    form (``load_config``).  ``seed``, when given, replaces the config's seed
    and is checked like it.  Stages:
    config -> built (validated) -> dataset and moments -> sample -> sample_pearson,
    summaries, comparison.  Asking for moments never generates the dataset.
    """

    source: str | Path | dict
    threads: int = 1
    shuffle: bool = False
    seed: int | None = None

    @cached_property
    def config(self) -> dict:
        config = load_config(self.source)
        if self.seed is not None:
            config["seed"] = checked_seed(self.seed, "seed")
        return config

    @cached_property
    def built(self) -> BuiltSpec:
        return build_spec(self.config)

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.built.spec.profile.variables)

    @cached_property
    def dataset(self) -> Dataset:
        return generate(self.built.spec, threads=self.threads, shuffle=self.shuffle)

    @cached_property
    def moments(self) -> MomentMatrices:
        return moment_matrices(self.built.spec.profile, self.built.spec.clusters)

    @cached_property
    def sample(self) -> MomentMatrices:
        return sample_moments(self.dataset)

    @cached_property
    def sample_pearson(self) -> AssociationMatrix:
        return AssociationMatrix(self.sample.correlation, self.names, "pearson")

    @cached_property
    def summaries(self) -> list[GroupSummary] | None:
        """Each group on its target's scale (correlation without targets); None without groups."""
        groups = self.built.groups
        return None if groups is None else summarize_groups(groups, self.moments, self.sample, self.names)

    @cached_property
    def calibration(self) -> CalibrationResult:
        if "groups" not in self.config:
            raise SpecError("calibrate: config must declare groups")
        return self.built.calibration

    @cached_property
    def comparison(self) -> ComparisonReport:
        theoretical = AssociationMatrix(self.moments.correlation, self.names, "pearson")
        return compare_matrices(theoretical, self.sample_pearson)


# ---------------------------------------------------------------------------
# Artifact files
# ---------------------------------------------------------------------------


def _format(value) -> str:
    """A table cell: a float (NaN included) as its repr, None as empty, else ``str``."""
    if isinstance(value, float):
        return repr(float(value))
    return "" if value is None else str(value)


@contextmanager
def _created(path: str | Path, mode: str = "w"):
    """Open ``path`` to write, as UTF-8 text unless ``mode`` is binary.

    Every artifact writer opens its file here.  A write that fails removes the
    file, so neither a partial file nor the one it replaced is left behind.
    """
    f = Path(path).open(mode, encoding=None if "b" in mode else "utf-8")
    try:
        with f:
            yield f
    except BaseException:
        Path(path).unlink(missing_ok=True)
        raise


def _write_lines(path: str | Path, header: str, lines) -> None:
    """Write the header, then each line, each followed by a newline, as UTF-8.

    Lines are written as they come, so a generator of lines is never held whole.
    """
    with _created(path) as f:
        f.write(header + "\n")
        f.writelines(line + "\n" for line in lines)


def _write_table(path: str | Path, header: str, rows) -> None:
    """Write the header line, then one line of comma-separated formatted cells per row."""
    _write_lines(path, header, (",".join(map(_format, row)) for row in rows))


def _matrix_files(values: np.ndarray, names: tuple[str, ...]):
    """The header and lines of a float matrix's CSV, then those of its long format.

    ``repr`` runs once per distinct 64-bit pattern (0.0 and -0.0 keep their own
    texts); both files look each cell's text up by index, a row at a time as
    lines are read, so the whole matrix is never held as Python objects.
    """
    values = np.ascontiguousarray(values, dtype=float)
    bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    text = list(map(repr, bits.view(float).tolist()))
    inverse = inverse.reshape(values.shape)
    square = (
        name + "," + ",".join(map(text.__getitem__, row.tolist()))
        for name, row in zip(names, inverse)
    )
    long = (
        f"{name_p},{name_q},{text[cell]}"
        for name_p, row in zip(names, inverse)
        for name_q, cell in zip(names, row.tolist())
    )
    return ("," + ",".join(names), square), ("p,q,value", long)


def write_matrix_csv(path: str | Path, values: np.ndarray, names: tuple[str, ...]) -> None:
    """Write a square matrix with a header row and a name column; cells as ``repr`` floats."""
    _write_lines(path, *_matrix_files(values, names)[0])


def _digit_tokens(width: int) -> np.ndarray:
    """A line of ``width`` zeros, ``0,`` per column and ``0\\n`` last, as little-endian uint16 cells."""
    return np.frombuffer(b"0," * (width - 1) + b"0\n", "<u2")


def _write_codes(
    path: Path, positions: np.ndarray, columns: tuple[VariableDomain, ...], header: bool
) -> None:
    """Write an n x P array of level positions as comma-separated level codes.

    Blocks of ``association._BLOCK_ROWS`` rows (at least one) are read by
    the Gram's two readers.  When every column's levels are consecutive
    integers inside 0..9, ``_cast_blocks`` adds each position to its
    column's ``_digit_tokens`` cell plus lowest level, in a reused rows x P
    uint16 block.  Any other file goes through ``_lookup_blocks`` with a
    P x M table of byte tokens, ``str(level)`` and a comma, or a newline in
    the last column, NUL-padded to the widest; no token holds a NUL byte, so
    a block's nonzero bytes are its tokens'.  The choice is read from
    ``columns`` alone.

    The bytes equal numpy's ``savetxt(path, codes, fmt="%d", delimiter=",",
    header=<column names> if header else "", comments="")`` (except that
    savetxt leaves out an empty header line), with ``codes`` the levels at
    ``positions``, which must lie in [0, size) of their column (a Dataset
    guarantees it).
    """
    rows = max(1, min(association._BLOCK_ROWS, len(positions)))
    if _consecutive(columns) and all(0 <= c.levels[0] <= 10 - c.size for c in columns):
        tokens = _digit_tokens(len(columns)) + np.array([c.levels[0] for c in columns], "<u2")
        blocks = _cast_blocks(positions, slice(None), tokens, np.empty((rows, len(columns)), "<u2"))
    else:
        width = max(c.size for c in columns)
        ends = [b","] * (len(columns) - 1) + [b"\n"]
        table = np.array([
            [str(level).encode() + end for level in c.levels] + [b""] * (width - c.size)
            for c, end in zip(columns, ends)
        ])
        buffer = np.empty((rows, len(columns)), table.dtype)
        cells = (b.view(np.uint8) for b in _lookup_blocks(positions, slice(None), table, buffer))
        blocks = (cell[cell != 0] for cell in cells)
    with _created(path, "wb") as f:
        if header:
            f.write((",".join(c.name for c in columns) + "\n").encode())
        f.writelines(blocks)


def write_dataset_csv(path: str | Path, dataset: Dataset) -> None:
    """Write the dataset as a headered integer CSV, one subject per line.

    The first line holds the variable names; each further line holds one
    subject's level codes.  Fields are comma-separated and every line ends
    with a newline: the bytes of numpy's ``savetxt(path, dataset.values,
    fmt="%d", delimiter=",", header=<names>, comments="")``.  A dataset whose
    columns all have consecutive levels inside 0..9 (SNP, binary) is written
    as digits computed from the positions; any other has its codes looked up.
    """
    _write_codes(path, dataset.positions, dataset.profile.variables, header=True)


def write_allocation(path: str | Path, dataset: Dataset) -> None:
    """Write each subject's true cluster (1..C), one per line, no header.

    The bytes are those of numpy's ``savetxt(path, assignments, fmt="%d")``.
    """
    clusters = VariableDomain("cluster", tuple(range(1, dataset.clusters.cluster_count + 1)))
    _write_codes(path, dataset.assignments[:, None] - 1, (clusters,), header=False)


def _digit_positions(body: bytes, width: int) -> tuple[list[list[int]], np.ndarray] | None:
    """``association._level_positions`` of a body of ``d,d,...,d\\n`` lines ``width`` wide, or None.

    Each field and the byte after it, read as one little-endian uint16 less
    its column's ``_digit_tokens``, is the field's digit 0..9 exactly when
    the field is one digit and the byte its separator; any other body gives
    None.  Bit d of a column's presence mask is set where digit d occurs in
    it, so the masks hold every column's levels, and a cell's position is
    its digit less its column's lowest one; only a column with a gap among
    its digits (0 and 2, say) looks its cells up.
    """
    if not body or len(body) % (2 * width):
        return None
    codes = np.subtract(np.frombuffer(body, "<u2").reshape(-1, width), _digit_tokens(width))
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


def read_dataset_csv(path: str | Path) -> LevelPositions:
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
            raise SpecError(f"associate: {path}: column name {_short.repr(name)} is used {count} times")
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


def write_group_summary(path: str | Path, summaries: list[GroupSummary]) -> None:
    header = "group,size,target_kind,target_value,theoretical,sample,abs_gap"
    _write_table(path, header, (
        (s.group, s.size, s.target_kind, s.target_value, s.theoretical, s.sample, s.gap)
        for s in summaries
    ))


def write_calibration_report(path: str | Path, calibration: CalibrationResult) -> None:
    header = "group,family,target_kind,target_value,low_parameter,covariance,correlation,high,low"
    _write_table(path, header, (
        (g.group, calibration.family, *((g.target.kind, g.target.value) if g.target else (None, None)),
         g.low_parameter, g.covariance, g.correlation,
         ";".join(map(_format, g.high.probs)), ";".join(map(_format, g.low.probs)))
        for g in calibration.groups
    ))


def _sha256(path: Path) -> str:
    """The file's SHA-256, read through one 1 MiB buffer so no artifact is held whole."""
    digest, block = hashlib.sha256(), bytearray(1 << 20)
    with Path(path).open("rb") as f:
        while size := f.readinto(block):
            digest.update(memoryview(block)[:size])
    return digest.hexdigest()


def write_association(out_dir, matrix: AssociationMatrix) -> None:
    """Write ``<measure>_matrix.csv`` and ``<measure>_long.csv``, their texts made once for both."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    square, long = _matrix_files(matrix.values, matrix.names)
    _write_lines(out / f"{matrix.measure}_matrix.csv", *square)
    _write_lines(out / f"{matrix.measure}_long.csv", *long)


def _write_json(path: str | Path, obj) -> None:
    """Write ``obj`` as indented JSON with sorted keys and a final newline."""
    with _created(path) as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


# Each artifact file: the name of its writer in this module, and the writer's
# arguments after the path, taken from the run's stages (None: the file does
# not apply to the run).  The writer is looked up by name when it is called,
# so a wrapper put on the module later, such as a tracer, sees every call.
ARTIFACTS = {
    "dataset.csv": ("write_dataset_csv", lambda run: (run.dataset,)),
    "allocation.txt": ("write_allocation", lambda run: (run.dataset,)),
    "theoretical_covariance.csv": (
        "write_matrix_csv", lambda run: (run.moments.covariance, run.names)),
    "theoretical_correlation.csv": (
        "write_matrix_csv", lambda run: (run.moments.correlation, run.names)),
    "sample_pearson.csv": ("write_matrix_csv", lambda run: (run.sample_pearson.values, run.names)),
    "group_summary.csv": (
        "write_group_summary", lambda run: None if run.summaries is None else (run.summaries,)),
    "calibration_report.csv": ("write_calibration_report", lambda run: (run.calibration,)),
    "comparison.json": ("_write_json", lambda run: (asdict(run.comparison),)),
}


def write_artifacts(run: RunResult, out_dir, names) -> dict[str, Path]:
    """Write the named artifacts of ``run`` into ``out_dir``; return their paths.

    Every stage the files need is computed before the directory is made, so
    a run that fails writes nothing.  group_summary.csv is skipped for a
    config without groups; calibration_report.csv is a SpecError for one.
    """
    arguments = {name: ARTIFACTS[name][1](run) for name in names}
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, args in arguments.items():
        if args is not None:
            paths[name] = out / name
            globals()[ARTIFACTS[name][0]](paths[name], *args)
    return paths


def run_pipeline(
    config_source,
    out_dir,
    seed: int | None = None,
    threads: int = 1,
    shuffle: bool = False,
) -> dict[str, Path]:
    """Execute a config end to end and write every artifact to ``out_dir``.

    Artifacts: dataset.csv, allocation.txt, theoretical_covariance.csv,
    theoretical_correlation.csv, sample_pearson.csv, group_summary.csv
    (grouped configs), calibration_report.csv (configs with targets), and
    manifest.json.  ``config_source`` is anything ``RunResult`` takes; a
    ``seed`` outside [0, 2**64) is a SpecError, and nothing is written.
    Identical config, seed and shuffle flag reproduce every byte; the thread
    count never changes output.
    """
    run = RunResult(config_source, threads, shuffle, seed)
    names = ["dataset.csv", "allocation.txt", "theoretical_covariance.csv",
             "theoretical_correlation.csv", "sample_pearson.csv", "group_summary.csv"]
    if "targets" in run.config.get("groups", {}):
        names.append("calibration_report.csv")
    paths = write_artifacts(run, out_dir, names)

    config = run.config
    manifest = {
        "config": config,
        "config_sha256": hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest(),
        "seed": config["seed"],
        "options": {"shuffle": shuffle},
        "versions": {
            "package": __version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
        "artifacts": {name: _sha256(path) for name, path in sorted(paths.items())},
    }
    paths["manifest.json"] = Path(out_dir) / "manifest.json"
    _write_json(paths["manifest.json"], manifest)
    return paths


def run_from_manifest(manifest_path, out_dir, threads: int = 1) -> dict[str, Path]:
    """Re-run a manifest's run into ``out_dir``; a clean return certifies bit-exact reproduction.

    A manifest that is not a JSON object with ``config`` and a boolean
    ``options.shuffle`` is a SpecError.  The re-run's manifest must equal it in
    every field but ``versions``, else ReproductionError names the fields that differ.
    """
    recorded = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    options = recorded.get("options") if isinstance(recorded, dict) else None
    shuffle = options.get("shuffle") if isinstance(options, dict) else None
    if not isinstance(shuffle, bool) or "config" not in recorded:
        raise SpecError(f"manifest: {manifest_path} has no config or no boolean options.shuffle")
    paths = run_pipeline(recorded["config"], out_dir, threads=threads, shuffle=shuffle)
    rerun = json.loads(paths["manifest.json"].read_text(encoding="utf-8"))
    fields = sorted((recorded.keys() | rerun.keys()) - {"versions"})
    wrong = [key for key in fields if recorded.get(key) != rerun.get(key)]
    if wrong:
        raise ReproductionError(f"manifest: the re-run does not reproduce {', '.join(wrong)}")
    return paths
