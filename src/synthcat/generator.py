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
with bit-identical output for any thread count.  Each task draws a tile
of adjacent columns with equal profile columns (a group's, the noise
block) into contiguous rows of a column-major buffer, shuffled within the
columns, and one transpose call then makes that buffer the n x P positions.
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
    probability_table,
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


# A pool task draws a tile of max(1, _TILE_WORDS // n) columns.
_TILE_WORDS = 2**17


def _tiles(edges: np.ndarray, sizes: list[int], counts, n: int):
    """Yield each tile, up to max(1, ``_TILE_WORDS`` // n) adjacent columns
    (a slice) with equal level counts and edges in every non-empty cluster,
    and its runs: rows start..stop and the thresholds of consecutive
    non-empty clusters with equal edges.
    """
    most = max(1, _TILE_WORDS // n)
    live = np.flatnonzero(counts)
    bounds = [*(np.cumsum(counts) - counts)[live], n]
    cells = edges[live]
    same = (np.diff(sizes) == 0) & (cells[:, 1:] == cells[:, :-1]).all(axis=(0, 2))
    # fresh[c, p]: column p's edges in live cluster c differ from those in the one before.
    fresh = np.insert((cells[1:] != cells[:-1]).any(axis=2), 0, True, axis=0)
    first = 0
    for p in range(1, len(sizes) + 1):
        if p < len(sizes) and same[p - 1] and p - first < most:
            continue
        runs = np.flatnonzero(fresh[:, first])
        yield slice(first, p), [
            (bounds[c], bounds[d], sampling.word_thresholds(cells[c, first, : sizes[first] - 1]))
            for c, d in zip(runs, [*runs[1:], len(live)])
        ]
        first = p


def _draw_tile(seed: int, tile: slice, runs, out: np.ndarray, order: np.ndarray | None) -> None:
    """Fill ``out`` with the level positions of columns ``tile``, a row each.

    One ``band_indices`` call per run counts its thresholds at or below each
    word of the tile.  With ``order``, ``out`` receives the tile permuted.
    """
    words = np.empty(out.shape, np.uint64)
    for row, p in zip(words, range(tile.start, tile.stop)):
        row[...] = sampling.column_words(seed, p, len(row))
    drawn = out if order is None else np.empty_like(out)
    for start, stop, thresholds in runs:
        drawn[:, start:stop] = sampling.band_indices(thresholds, words[:, start:stop])
    if order is not None:
        np.take(drawn, order, axis=1, out=out, mode="clip")


def generate(spec: GeneratorSpec, threads: int = 1, shuffle: bool = False):
    """Draw the full dataset, one tile of columns per task on ``threads`` (>= 1) workers.

    The output is independent of ``threads``.

    With ``shuffle`` the subjects are reordered by a dedicated seeded
    stream, so the data no longer reveals the allocation through row order;
    the returned assignments are reordered in lockstep.

    Workers write each tile into its rows of a P x n buffer, shuffling
    within the columns as they go; one transpose call then copies that
    buffer into the n x P positions (a pooled transpose measured no faster).
    The peak is two n x P arrays at that transpose, shuffled or not.
    """
    if threads < 1:
        raise SpecError(f"generate: threads must be at least 1, got {threads}")
    for message in spec.warnings:
        warnings.warn(message)

    assignments = allocate_subjects(spec.clusters)
    n = len(assignments)
    # Every (cluster, column) cell's edges, from one cumulative sum.
    edges = sampling.band_edges(probability_table(spec.profile))
    order = sampling.shuffle_order(spec.seed, n) if shuffle else None
    sizes = [domain.size for domain in spec.profile.variables]
    # One byte per cell up to 256 levels, two above.
    columns = np.empty((len(sizes), n), dtype=np.min_scalar_type(max(sizes) - 1))

    # Workers write straight into rows of one buffer: returned tiles would
    # queue up in the pool faster than the caller copies them out.
    with ThreadPoolExecutor(max_workers=threads) as pool:
        tiles = _tiles(edges, sizes, spec.clusters.counts, n)
        list(pool.map(lambda t: _draw_tile(spec.seed, *t, columns[t[0]], order), tiles))
    positions = np.ascontiguousarray(columns.T)
    del columns
    if shuffle:
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
