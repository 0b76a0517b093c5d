"""Dataset generation: allocation, profile assembly, and sampling.

The generative procedure is: fix the number of clusters C and per-cluster
subject counts, allocate subjects to clusters in contiguous blocks, then
draw every (subject, variable) cell independently from the cluster's
categorical profile by direct inverse-CDF lookup in ``sampling``: a cell
takes the first level whose cumulative probability exceeds its uniform,
and the dataset keeps that level's position, not its code.
Profiles come either from an explicit ProfileMatrix or from a
PatternMatrix whose H/L labels are bound to concrete probability vectors,
with any noise columns appended after the pattern's.

Columns are independent streams, so generation can fan out across threads
with bit-identical output for any thread count.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import sampling
from .calibration import CalibrationResult, calibrate_group
from .model import (
    ClusterSpec,
    Dataset,
    DependenceTarget,
    GroupStructure,
    ProbabilityVector,
    ProfileMatrix,
    SpecError,
    VariableDomain,
    resolve_clusters,
    validate_spec,
)
from .patterns import HIGH, LOW, PatternMatrix, grouped_pattern


@dataclass(frozen=True)
class GeneratorSpec:
    """Everything generate() needs: clusters, profiles, and the seed.

    Construction raises SpecError on any ``validate_spec`` violation;
    ``warnings`` keeps the report's warnings for ``generate``.
    """

    clusters: ClusterSpec
    profile: ProfileMatrix
    seed: int
    warnings: tuple[str, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        report = validate_spec(self.profile, self.clusters)
        if not report.ok:
            raise SpecError("; ".join(report.violations))
        object.__setattr__(self, "warnings", report.warnings)


def allocate_subjects(clusters: ClusterSpec) -> np.ndarray:
    """1-based cluster label per subject, in cluster-contiguous blocks."""
    return np.repeat(np.arange(1, clusters.cluster_count + 1), clusters.counts)


def _per_column(vectors, count: int, what: str) -> list[ProbabilityVector]:
    """Broadcast a single ProbabilityVector, or check a per-column list."""
    if isinstance(vectors, ProbabilityVector):
        return [vectors] * count
    vectors = list(vectors)
    if len(vectors) != count:
        raise SpecError(f"bind_pattern: {len(vectors)} {what} vectors for {count} columns")
    return vectors


def bind_pattern(
    pattern: PatternMatrix,
    variables: tuple[VariableDomain, ...],
    high,
    low,
    noise=(),
) -> ProfileMatrix:
    """Replace each H/L label with its column's high or low vector, then add noise.

    ``high`` and ``low`` are per-column lists (or a single vector, used for
    every column).  Each ``noise`` vector becomes one more column after the
    pattern's, the same in every cluster row, which is what makes it carry
    no signal.  ``variables`` covers the pattern columns, then the noise
    columns.
    """
    noise = tuple(noise)
    if len(variables) != pattern.variable_count + len(noise):
        raise SpecError(
            f"bind_pattern: {len(variables)} domains for {pattern.variable_count} "
            f"pattern columns and {len(noise)} noise columns"
        )
    highs = _per_column(high, pattern.variable_count, "high")
    lows = _per_column(low, pattern.variable_count, "low")
    if not all(label in (HIGH, LOW) for row in pattern.symbols for label in row):
        raise SpecError(f"bind_pattern: pattern labels must be {HIGH!r} or {LOW!r}")
    rows = tuple(
        tuple(hi if label == HIGH else lo for label, hi, lo in zip(row, highs, lows)) + noise
        for row in pattern.symbols
    )
    return ProfileMatrix(variables, rows)


def _generate_column(spec: GeneratorSpec, p: int, out: np.ndarray) -> None:
    """Fill ``out`` with column p's level positions, one cluster block at a time."""
    uniforms = sampling.column_uniforms(spec.seed, p, len(out))
    start = 0
    for c, count in enumerate(spec.clusters.counts):
        edges = sampling.band_edges(spec.profile.cell(c, p).as_array())
        block = slice(start, start + count)
        out[block] = sampling.band_indices(edges, uniforms[block])
        start += count


def generate(spec: GeneratorSpec, threads: int = 1, shuffle: bool = False):
    """Draw the full dataset, one column per task on ``threads`` (>= 1) workers.

    The output is independent of ``threads``.

    With ``shuffle`` the subjects are reordered by a dedicated seeded
    stream, so the data no longer reveals the allocation through row order;
    the returned assignments are reordered in lockstep.
    """
    if threads < 1:
        raise SpecError(f"generate: threads must be at least 1, got {threads}")
    for message in spec.warnings:
        warnings.warn(message)

    assignments = allocate_subjects(spec.clusters)
    n = len(assignments)
    p_count = spec.profile.variable_count
    # One byte per cell up to 256 levels, two above.
    widest = max(domain.size for domain in spec.profile.variables)
    positions = np.empty((n, p_count), dtype=np.min_scalar_type(widest - 1))

    # Workers write straight into the result: returned columns would queue
    # up in the pool faster than the caller copies them out.
    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(lambda p: _generate_column(spec, p, positions[:, p]), range(p_count)))

    if shuffle:
        order = sampling.shuffle_order(spec.seed, n)
        positions = positions[order]
        assignments = assignments[order]

    positions.setflags(write=False)
    assignments.setflags(write=False)
    return Dataset(
        positions=positions,
        assignments=assignments,
        profile=spec.profile,
        clusters=spec.clusters,
        seed=spec.seed,
        shuffled=shuffle,
    )


def _high_weights(
    pattern: PatternMatrix, clusters: ClusterSpec, group_count: int
) -> tuple[float, ...]:
    """Per group, the total weight of the clusters where its columns are 'H'."""
    out = []
    for v in range(1, group_count + 1):
        column = pattern.column(pattern.column_groups.index(v))
        out.append(math.fsum(w for w, label in zip(clusters.weights, column) if label == HIGH))
    return tuple(out)


@dataclass(frozen=True)
class BuiltSpec:
    """A GeneratorSpec plus the group metadata that produced it."""

    spec: GeneratorSpec
    groups: GroupStructure | None = None
    calibration: CalibrationResult | None = None


def build_spec(config: dict) -> BuiltSpec:
    """Assemble a generatable spec from a canonical config (``load_config``).

    Explicit-profile configs translate directly, taking C from the profile's
    rows unless the config gives it.  Grouped configs run the calibration (or
    take literal H/L vectors), lay columns out group by group with noise
    last, and derive the cluster count from the group count.

    The spec validates itself, so every subcommand refuses a config that
    ``validate_spec`` finds a hard violation in (SpecError).  Identifiability
    warnings are left to ``generate``.
    """
    if "profile" in config:
        variables = tuple(VariableDomain(**variable) for variable in config["variables"])
        rows = tuple(tuple(ProbabilityVector(cell) for cell in row) for row in config["profile"])
        clusters = resolve_clusters({"C": len(rows), **config["clusters"]})
        return BuiltSpec(GeneratorSpec(clusters, ProfileMatrix(variables, rows), config["seed"]))

    groups, noise = config["groups"], config.get("noise", ())
    targets = groups.get("targets")
    structure = GroupStructure(
        sizes=groups["sizes"],
        targets=None if targets is None else tuple(
            DependenceTarget(kind, value) for target in targets for kind, value in target.items()
        ),
        noise_count=len(noise),
    )
    pattern, cluster_count = grouped_pattern(structure)
    clusters = resolve_clusters(config["clusters"], derived_count=cluster_count)
    # The calibration solves against the cluster weights, so bad weights are
    # reported as such, not as an infeasible target.
    problems = clusters.violations()
    if problems:
        raise SpecError("; ".join(problems))
    calibration = calibrate_group(
        structure,
        groups["family"],
        _high_weights(pattern, clusters, structure.group_count),
        high_prob=groups.get("pH"),
        high=groups.get("H"),
        low=groups.get("L"),
    )

    # calibration.groups holds group v at position v - 1.
    solved = [calibration.groups[v - 1] for v in structure.column_groups()]
    highs = [group.high for group in solved]
    lows = [group.low for group in solved]
    noise_vectors = [ProbabilityVector(column["probs"]) for column in noise]

    variables = tuple(
        VariableDomain(f"x{p}", calibration.levels, "interval")
        for p in range(1, structure.variable_count + 1)
    ) + tuple(VariableDomain(column["name"], column["levels"], "interval") for column in noise)
    profile = bind_pattern(pattern, variables, highs, lows, noise_vectors)
    spec = GeneratorSpec(clusters, profile, config["seed"])
    return BuiltSpec(spec, structure, calibration)
