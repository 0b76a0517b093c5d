"""Pipeline assembly: one staged run, its artifact files, and the manifest.

A run (``RunResult``) takes a config through lazy stages: the validated
spec, the dataset, the exact moment matrices, the sample moments (one pass),
per-group summaries of target vs theoretical vs sample dependence, and the
theory-vs-sample comparison.  ``ARTIFACTS`` says which stages feed which
file.  ``run_pipeline`` writes them plus a manifest that embeds the config
and enough version and hash information that the whole run can be
reproduced and verified bit for bit from the manifest alone.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__
from .association import AssociationMatrix, _level_index, sample_moments
from .calibration import CalibrationResult
from .generator import BuiltSpec, build_spec, generate
from .model import (
    Dataset,
    GroupStructure,
    RunConfig,
    SpecError,
    VariableDomain,
    checked_seed,
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
    """The stages of one run, each computed on first use and then kept.

    ``source`` is a RunConfig, a config dict or a JSON path; ``seed``, when
    given, replaces the config's seed and is checked like it.  Stages:
    config -> built (validated) -> dataset and moments -> sample -> sample_pearson,
    summaries, comparison.  Asking for moments never generates the dataset.
    """

    source: RunConfig | str | Path | dict
    threads: int = 1
    shuffle: bool = False
    seed: int | None = None

    @cached_property
    def config(self) -> RunConfig:
        config = self.source if isinstance(self.source, RunConfig) else load_config(self.source)
        if self.seed is not None:
            config = replace(config, seed=checked_seed(self.seed, "seed"))
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
        if groups is None:
            return None
        kinds = [t.kind for t in groups.targets or ()] or ["correlation"] * groups.group_count
        by_kind = {}
        for kind in set(kinds):
            theory, sample = (AssociationMatrix(getattr(m, kind), self.names, kind)
                              for m in (self.moments, self.sample))
            by_kind[kind] = summarize_groups(groups, theory, sample)
        return [by_kind[kind][v] for v, kind in enumerate(kinds)]

    @cached_property
    def calibration(self) -> CalibrationResult:
        if self.config.groups is None:
            raise SpecError("calibrate: config must declare groups")
        return self.built.calibration

    @cached_property
    def comparison(self) -> ComparisonReport:
        theoretical = AssociationMatrix(self.moments.correlation, self.names, "pearson")
        return compare_matrices(theoretical, self.sample_pearson)


def build_run(config, threads: int = 1, shuffle: bool = False) -> RunResult:
    """The run of ``config`` (a RunConfig, dict or JSON path); no stage is computed yet."""
    return RunResult(config, threads, shuffle)


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
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


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
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


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
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_long_format(path: Path, matrix: AssociationMatrix) -> None:
    """Heatmap-ready triplets: variable_p, variable_q, value."""
    lines = ["p,q,value"]
    for name_p, name_q, value in matrix.long_format():
        lines.append(f"{name_p},{name_q},{_format(value)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_association(out_dir, matrix: AssociationMatrix) -> None:
    """Write ``<measure>_matrix.csv`` and its heatmap-ready ``<measure>_long.csv``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_matrix_csv(out / f"{matrix.measure}_matrix.csv", matrix.values, matrix.names)
    write_long_format(out / f"{matrix.measure}_long.csv", matrix)


def write_comparison(path: Path, comparison: ComparisonReport) -> None:
    text = json.dumps(asdict(comparison), indent=2, sort_keys=True) + "\n"
    path.write_text(text, encoding="utf-8")


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
    "comparison.json": ("write_comparison", lambda run: (run.comparison,)),
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
    manifest.json.  ``config_source`` is anything ``build_run`` takes; a
    ``seed`` outside [0, 2**64) is a SpecError, and nothing is written.
    Identical config, seed and shuffle flag reproduce every byte; the thread
    count never changes output.
    """
    run = replace(build_run(config_source, threads=threads, shuffle=shuffle), seed=seed)
    names = ["dataset.csv", "allocation.txt", "theoretical_covariance.csv",
             "theoretical_correlation.csv", "sample_pearson.csv", "group_summary.csv"]
    if run.config.groups is not None and run.config.groups.targets is not None:
        names.append("calibration_report.csv")
    paths = write_artifacts(run, out_dir, names)

    config = dump_config(run.config)
    manifest = {
        "config": config,
        "config_sha256": hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest(),
        "seed": run.config.seed,
        "options": {"shuffle": shuffle},
        "versions": {
            "package": __version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
        "artifacts": {name: _sha256(path) for name, path in sorted(paths.items())},
    }
    manifest_path = Path(out_dir) / "manifest.json"
    manifest_path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    paths["manifest.json"] = manifest_path
    return paths


def run_from_manifest(manifest_path, out_dir, threads: int = 1) -> dict[str, Path]:
    """Reproduce a run from its manifest and verify artifact hashes.

    Raises SpecError if any regenerated artifact's hash disagrees with the
    manifest, so a clean return certifies bit-exact reproduction.
    """
    manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
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
