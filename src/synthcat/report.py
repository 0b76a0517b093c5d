"""Pipeline assembly: run everything, write artifacts, compare matrices.

A run takes a config to a directory of artifacts: the dataset and its true
allocation, the exact moment matrices implied by the spec, the sample
Pearson matrix, per-group summaries of target vs theoretical vs sample
dependence, the calibration report when targets were solved, and a
manifest.  The manifest embeds the config and enough version and hash
information that the whole run can be reproduced and verified bit for bit
from the manifest alone.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .association import AssociationMatrix, _level_index, pearson_matrix
from .calibration import CalibrationResult
from .generator import BuiltSpec, build_spec, generate
from .model import (
    Dataset,
    GroupStructure,
    RunConfig,
    SpecError,
    VariableDomain,
    dump_config,
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
    theoretical: AssociationMatrix,
    sample: AssociationMatrix,
) -> list[GroupSummary]:
    """Per-group theoretical and sample averages, side by side."""
    theo = within_group_averages(theoretical, groups)
    samp = within_group_averages(sample, groups)
    out = []
    for v in range(groups.group_count):
        target = groups.targets[v] if groups.targets is not None else None
        out.append(
            GroupSummary(
                group=v + 1,
                size=groups.sizes[v],
                target_kind=target.kind if target else None,
                target_value=target.value if target else None,
                theoretical=theo[v],
                sample=samp[v],
            )
        )
    return out


@dataclass(frozen=True)
class ComparisonReport:
    """Cellwise gaps between a theoretical and a sample matrix.

    Gaps cover every cell where both sides are finite; the sign-agreement
    fraction is computed off the diagonal only, since diagonals agree by
    convention.
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
    both = finite & off
    agree = np.sign(theoretical.values[both]) == np.sign(sample.values[both])
    return ComparisonReport(
        max_abs_gap=float(gaps[finite].max()) if finite.any() else math.nan,
        mean_abs_gap=float(gaps[finite].mean()) if finite.any() else math.nan,
        sign_agreement=float(agree.mean()) if both.any() else math.nan,
    )


@dataclass(frozen=True)
class RunResult:
    """Everything a pipeline run produces, before any files are written."""

    config: RunConfig
    built: BuiltSpec
    dataset: Dataset
    moments: MomentMatrices
    sample_pearson: AssociationMatrix
    summaries: list[GroupSummary] | None


def build_run(config: RunConfig, threads: int = 1, shuffle: bool = False) -> RunResult:
    """Run the full chain in memory: build, generate, moments, associate."""
    built = build_spec(config)
    dataset = generate(built.spec, threads=threads, shuffle=shuffle)
    moments = moment_matrices(built.spec.profile, built.spec.clusters)
    sample = pearson_matrix(dataset)
    summaries = None
    if built.groups is not None:
        names = tuple(v.name for v in built.spec.profile.variables)
        # Each group is reported on its own target's scale; groups without
        # targets are reported as correlations.
        groups = built.groups
        kinds = [t.kind for t in groups.targets or ()] or ["correlation"] * groups.group_count
        matrices = {
            "correlation": (AssociationMatrix(moments.correlation, names, "pearson"), sample)
        }
        if "covariance" in kinds:
            matrices["covariance"] = (
                AssociationMatrix(moments.covariance, names, "covariance"),
                _sample_covariance(dataset),
            )
        by_kind = {kind: summarize_groups(groups, *pair) for kind, pair in matrices.items()}
        summaries = [by_kind[kind][v] for v, kind in enumerate(kinds)]
    return RunResult(config, built, dataset, moments, sample, summaries)


def _sample_covariance(dataset: Dataset) -> AssociationMatrix:
    values = dataset.values.astype(float)
    names = tuple(v.name for v in dataset.profile.variables)
    return AssociationMatrix(np.cov(values, rowvar=False, ddof=1), names, "covariance")


# ---------------------------------------------------------------------------
# Artifact files
# ---------------------------------------------------------------------------


def _format(value: float) -> str:
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    return repr(float(value))


def write_matrix_csv(path: Path, values: np.ndarray, names: tuple[str, ...]) -> None:
    lines = ["," + ",".join(names)]
    for name, row in zip(names, values):
        lines.append(name + "," + ",".join(_format(x) for x in row))
    path.write_text("\n".join(lines) + "\n")


# Rows per block of the code writer: the block's token indices (8 bytes per
# cell) and gathered bytes stay a few MB however long the table is.
_ROWS_PER_BLOCK = 4096


def _write_codes(
    path: Path, values: np.ndarray, columns: tuple[VariableDomain, ...], header: bool
) -> None:
    """Write an n x P array of level codes as comma-separated text lines.

    Each column's declared levels (sorted) become byte tokens once:
    ``str(level)`` followed by a comma, or by a newline in the last column.
    A block of rows is written by finding each cell's level position, then
    gathering its token.  Tokens are padded to the widest one and the
    padding is dropped by a mask, so mixed widths need no second path.

    The bytes equal numpy's ``savetxt(path, values, fmt="%d", delimiter=",",
    header=<column names> if header else "", comments="")`` (except that
    savetxt leaves out an empty header line).  A value that is not a
    declared level of its column raises SpecError, and the file is removed,
    so no partial file is left behind.
    """
    tokens: list[bytes] = []
    offsets = []
    for p, column in enumerate(columns):
        end = b"\n" if p == len(columns) - 1 else b","
        offsets.append(len(tokens))
        tokens.extend(str(level).encode() + end for level in column.levels)
    # One fixed-width item per token, NUL-padded to the widest.  No token
    # holds a NUL byte, so the nonzero bytes are exactly each token's own.
    table = np.array(tokens, dtype=np.bytes_)

    path = Path(path)
    f = path.open("wb")
    try:
        with f:
            if header:
                f.write((",".join(c.name for c in columns) + "\n").encode())
            for start in range(0, len(values), _ROWS_PER_BLOCK):
                block = values[start : start + _ROWS_PER_BLOCK]
                index = np.empty(block.shape, dtype=np.intp)
                for p, column in enumerate(columns):
                    index[:, p] = offsets[p] + _level_index(
                        column.levels,
                        block[:, p],
                        f"{path.name}: column {column.name!r} has values outside its "
                        "declared levels",
                    )
                cells = table[index].view(np.uint8)
                f.write(cells[cells != 0])
    except BaseException:
        path.unlink(missing_ok=True)
        raise


def write_dataset_csv(path: Path, dataset: Dataset) -> None:
    """Write the dataset as a headered integer CSV, one subject per line.

    The first line holds the variable names; each further line holds one
    subject's level codes.  Fields are comma-separated and every line ends
    with a newline: the bytes of numpy's ``savetxt(path, values, fmt="%d",
    delimiter=",", header=<names>, comments="")``.  A value outside its
    column's declared levels raises SpecError and leaves no file.
    """
    _write_codes(path, dataset.values, dataset.profile.variables, header=True)


def write_allocation(path: Path, dataset: Dataset) -> None:
    """Write each subject's true cluster (1..C), one per line, no header.

    The bytes are those of numpy's ``savetxt(path, assignments, fmt="%d")``.
    A cluster outside 1..C raises SpecError and leaves no file.
    """
    clusters = VariableDomain("cluster", tuple(range(1, dataset.clusters.cluster_count + 1)))
    _write_codes(path, dataset.assignments[:, None], (clusters,), header=False)


def write_group_summary(path: Path, summaries: list[GroupSummary]) -> None:
    lines = ["group,size,target_kind,target_value,theoretical,sample,abs_gap"]
    for s in summaries:
        lines.append(
            ",".join(
                [
                    str(s.group),
                    str(s.size),
                    s.target_kind or "",
                    _format(s.target_value) if s.target_value is not None else "",
                    _format(s.theoretical),
                    _format(s.sample),
                    _format(s.gap),
                ]
            )
        )
    path.write_text("\n".join(lines) + "\n")


def write_calibration_report(path: Path, calibration: CalibrationResult) -> None:
    lines = ["group,family,target_kind,target_value,low_parameter,covariance,correlation,high,low"]
    for g in calibration.groups:
        lines.append(
            ",".join(
                [
                    str(g.group),
                    calibration.family,
                    g.target.kind if g.target else "",
                    _format(g.target.value) if g.target else "",
                    _format(g.low_parameter) if g.low_parameter is not None else "",
                    _format(g.covariance),
                    _format(g.correlation),
                    ";".join(_format(p) for p in g.high.probs),
                    ";".join(_format(p) for p in g.low.probs),
                ]
            )
        )
    path.write_text("\n".join(lines) + "\n")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_long_format(path: Path, matrix: AssociationMatrix) -> None:
    """Heatmap-ready triplets: variable_p, variable_q, value."""
    lines = ["p,q,value"]
    for name_p, name_q, value in matrix.long_format():
        lines.append(f"{name_p},{name_q},{_format(value)}")
    path.write_text("\n".join(lines) + "\n")


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
    manifest.json.  Identical config, seed and shuffle flag reproduce every
    byte; the thread count never changes output.
    """
    config = load_config(config_source)
    if seed is not None:
        config = replace(config, seed=seed)
    result = build_run(config, threads=threads, shuffle=shuffle)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    names = tuple(v.name for v in result.built.spec.profile.variables)

    paths: dict[str, Path] = {}

    def emit(name: str, writer, *args) -> None:
        path = out / name
        writer(path, *args)
        paths[name] = path

    emit("dataset.csv", write_dataset_csv, result.dataset)
    emit("allocation.txt", write_allocation, result.dataset)
    emit("theoretical_covariance.csv", write_matrix_csv, result.moments.covariance, names)
    emit("theoretical_correlation.csv", write_matrix_csv, result.moments.correlation, names)
    emit("sample_pearson.csv", write_matrix_csv, result.sample_pearson.values, names)
    if result.summaries is not None:
        emit("group_summary.csv", write_group_summary, result.summaries)
    if result.built.calibration is not None and result.built.groups is not None:
        if result.built.groups.targets is not None:
            emit("calibration_report.csv", write_calibration_report, result.built.calibration)

    manifest = {
        "config": dump_config(config),
        "config_sha256": hashlib.sha256(
            json.dumps(dump_config(config), sort_keys=True).encode()
        ).hexdigest(),
        "seed": config.seed,
        "options": {"shuffle": shuffle},
        "versions": {
            "package": __version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
        "artifacts": {name: _sha256(path) for name, path in sorted(paths.items())},
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    paths["manifest.json"] = manifest_path
    return paths


def run_from_manifest(manifest_path, out_dir, threads: int = 1) -> dict[str, Path]:
    """Reproduce a run from its manifest and verify artifact hashes.

    Raises SpecError if any regenerated artifact's hash disagrees with the
    manifest, so a clean return certifies bit-exact reproduction.
    """
    manifest = json.loads(Path(manifest_path).read_text())
    paths = run_pipeline(
        manifest["config"],
        out_dir,
        threads=threads,
        shuffle=manifest["options"]["shuffle"],
    )
    for name, recorded in manifest["artifacts"].items():
        actual = _sha256(paths[name])
        if actual != recorded:
            raise SpecError(f"manifest: artifact {name} hash mismatch after re-run")
    return paths
