"""Output-correctness gate for the benchmark's operations.

Every check runs outside the timed region.  An operation whose artifacts
are byte-identical to those of an operation already verified in the same
run passes on its digests alone; any other operation goes through the full
check: pinned SHA-256 digests (pipeline workloads at their default seed)
and numerical oracles that recompute float outputs with numpy from the
inputs or from the bytes that were written, without calling the synthcat
function that produced them.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from pathlib import Path

import numpy as np

# SHA-256 of dataset.csv and allocation.txt at each pipeline workload's
# default seed.  These pin the generated bytes across code versions: a
# change that alters them changes what a (config, seed) pair produces.
PINNED = {
    "linkage-60k": {
        "dataset.csv": "847f380934aff7e3921bcfcbc0660d5163635e680c5ff37fce5f5a02113f8a1d",
        "allocation.txt": "a6c2e055bc026fc316cc4114c829a04ccd8aa6a7463482127502b5564ff4cb23",
    },
    "wide-512": {
        "dataset.csv": "8da5740d8cc52f86fe2d0e63b13b4c9666236632b0f80d61035d834457833cb4",
        "allocation.txt": "af3523ba0212c7dac913447ffce679a248640ddc44b43b1e77ff65d9ae1c99c3",
    },
}

PIPELINE_ARTIFACTS = (
    "dataset.csv",
    "allocation.txt",
    "theoretical_covariance.csv",
    "theoretical_correlation.csv",
    "sample_pearson.csv",
    "group_summary.csv",
    "calibration_report.csv",
    "manifest.json",
)

# The theoretical matrices are exact up to summation order, and the sample
# Pearson matrix of integer codes is recomputed from exact integer sums: a
# single changed cell in a 60000-row column moves a correlation by about
# 1e-5, far above these tolerances.
MOMENT_TOLERANCE = 1e-12
PEARSON_TOLERANCE = 1e-9
ASSOCIATION_TOLERANCE = 1e-12

MEASURES = ("v", "vcc", "tauc")

# Bytes of rows read per chunk when streaming a dataset CSV back in.
_CHUNK_BYTES = 1 << 22


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class Gate:
    """Counts an operation as correct only if its artifacts pass ``verify``.

    ``verify(paths, digests)`` returns a list of problems.  Digest sets
    that passed once are remembered, so repeated identical outputs are not
    re-verified.
    """

    def __init__(self, verify) -> None:
        self._verify = verify
        self._verified: set[tuple] = set()

    def check(self, paths: dict[str, Path]) -> list[str]:
        digests = {name: sha256_file(path) for name, path in paths.items()}
        key = tuple(sorted(digests.items()))
        if key in self._verified:
            return []
        problems = self._verify(paths, digests)
        if not problems:
            self._verified.add(key)
        return problems


# ---------------------------------------------------------------------------
# Readers
# ---------------------------------------------------------------------------


def read_matrix_csv(path) -> tuple[tuple[str, ...], tuple[str, ...], np.ndarray]:
    """Column names, row names and values of a matrix CSV with a blank corner.

    Parsed row by row, so the check never holds every field as a string.
    """
    with open(path) as f:
        header = f.readline().rstrip("\n").split(",")
        if header[0] != "":
            raise ValueError(f"{Path(path).name}: header does not start with a blank corner")
        names, rows = [], []
        for line in f:
            name, _, fields = line.rstrip("\n").partition(",")
            names.append(name)
            rows.append(np.array(fields.split(","), dtype=float))
    return tuple(header[1:]), tuple(names), np.array(rows)


def integer_csv_moments(path, names: tuple[str, ...]):
    """Stream a headered integer CSV: row count, column sums, X^T X, levels seen.

    Returns ``(n, sums, cross, seen)`` where ``seen[p]`` is the set of codes
    in column p.  Integer sums in float64 stay exact below 2**53.
    """
    width = len(names)
    sums = np.zeros(width)
    cross = np.zeros((width, width))
    seen = [set() for _ in range(width)]
    n = 0
    with open(path, "rb") as f:
        header = f.readline().decode().rstrip("\n").split(",")
        if tuple(header) != tuple(names):
            raise ValueError(f"{Path(path).name}: header does not match the variable names")
        while True:
            lines = f.readlines(_CHUNK_BYTES)
            if not lines:
                break
            text = b"".join(lines)
            if not text.endswith(b"\n") or text.count(b",") != len(lines) * (width - 1):
                raise ValueError(f"{Path(path).name}: a row does not have {width} fields")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                flat = np.fromstring(text.replace(b"\n", b","), dtype=np.int64, sep=",")
            if flat.size != len(lines) * width:
                raise ValueError(f"{Path(path).name}: non-integer field")
            block = flat.reshape(len(lines), width)
            for p in range(width):
                seen[p].update(np.unique(block[:, p]).tolist())
            x = block.astype(float)
            sums += x.sum(axis=0)
            cross += x.T @ x
            n += len(lines)
    return n, sums, cross, seen


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def mixture_covariance(means: np.ndarray, variances: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Exact covariance of a mixture from C x P cluster means and variances."""
    dev = means - weights @ means
    cov = (dev * weights[:, None]).T @ dev
    np.fill_diagonal(cov, weights @ variances + weights @ dev**2)
    return cov


def correlation_from_covariance(cov: np.ndarray) -> np.ndarray:
    sd = np.sqrt(np.diag(cov))
    with np.errstate(divide="ignore", invalid="ignore"):
        cor = cov / np.outer(sd, sd)
    cor[~np.isfinite(cor)] = np.nan
    np.fill_diagonal(cor, np.where(sd > 0.0, 1.0, np.nan))
    return cor


def pearson_from_moments(n: int, sums: np.ndarray, cross: np.ndarray) -> np.ndarray:
    """Sample correlations; the diagonal is 1 by convention, as synthcat writes it."""
    cor = correlation_from_covariance(cross - np.outer(sums, sums) / n)
    np.fill_diagonal(cor, 1.0)
    return cor


def contingency(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Counts over the observed levels of x (rows) and y (columns)."""
    lx, ix = np.unique(x, return_inverse=True)
    ly, iy = np.unique(y, return_inverse=True)
    flat = np.bincount(ix * len(ly) + iy, minlength=len(lx) * len(ly))
    return flat.reshape(len(lx), len(ly))


def cramers_v_paper(counts: np.ndarray) -> float:
    """chi^2 / (n min(R, S)), with chi^2 = n (sum n_ij^2 / (r_i s_j) - 1)."""
    n = counts.sum()
    rows = counts.sum(axis=1)
    cols = counts.sum(axis=0)
    chi2 = n * ((counts.astype(float) ** 2 / np.outer(rows, cols)).sum() - 1.0)
    return float(chi2 / (n * min(counts.shape)))


def concentration(counts: np.ndarray) -> float:
    """Goodman-Kruskal concentration coefficient, rows predicting columns."""
    pi = counts / counts.sum()
    col = pi.sum(axis=0)
    baseline = (col**2).sum()
    return float(((pi**2).sum(axis=1) / pi.sum(axis=1)).sum() - baseline) / (1.0 - baseline)


def tau_c(counts: np.ndarray) -> float:
    """Stuart-Kendall tau_c from 2-D suffix sums of the contingency table."""
    n = int(counts.sum())
    c = counts.astype(np.int64)
    # below_right[i, j] = sum of counts in rows > i and columns > j.
    tail = np.cumsum(np.cumsum(c[::-1, ::-1], axis=0), axis=1)[::-1, ::-1]
    below_right = np.zeros_like(c)
    below_right[:-1, :-1] = tail[1:, 1:]
    # below_left[i, j] = sum of counts in rows > i and columns < j.
    rows_below = np.cumsum(c[::-1], axis=0)[::-1]
    left = np.cumsum(rows_below, axis=1)
    below_left = np.zeros_like(c)
    below_left[:-1, 1:] = left[1:, :-1]
    concordant = int((c * below_right).sum())
    discordant = int((c * below_left).sum())
    m = min(c.shape)
    return float(2.0 * (concordant - discordant) / (n * n * (m - 1) / m))


def close(expected: np.ndarray, actual: np.ndarray, tolerance: float) -> bool:
    return expected.shape == actual.shape and bool(
        np.allclose(actual, expected, rtol=0.0, atol=tolerance, equal_nan=True)
    )


# ---------------------------------------------------------------------------
# Pipeline workloads
# ---------------------------------------------------------------------------


class PipelineExpectation:
    """What a pipeline operation must have written, derived from its spec.

    ``means``/``variances`` are the C x P cluster moments computed with
    numpy from the spec's probability vectors; ``counts`` are the subjects
    per cluster.
    """

    def __init__(self, names, levels, means, variances, weights, counts, pinned) -> None:
        self.names = tuple(names)
        self.levels = [set(lv) for lv in levels]
        self.counts = np.asarray(counts)
        self.covariance = mixture_covariance(means, variances, np.asarray(weights, dtype=float))
        self.correlation = correlation_from_covariance(self.covariance)
        self.pinned = pinned or {}

    def __call__(self, paths: dict[str, Path], digests: dict[str, str]) -> list[str]:
        problems = []
        missing = [name for name in PIPELINE_ARTIFACTS if name not in paths]
        if missing:
            return [f"missing artifacts: {', '.join(missing)}"]
        for name, pinned in self.pinned.items():
            if digests[name] != pinned:
                problems.append(f"{name}: SHA-256 {digests[name][:12]} is not the pinned {pinned[:12]}")
        recorded = json.loads(Path(paths["manifest.json"]).read_text())["artifacts"]
        if recorded != {name: digest for name, digest in digests.items() if name != "manifest.json"}:
            problems.append("manifest.json: artifact digests do not match the files")

        n, sums, cross, seen = integer_csv_moments(paths["dataset.csv"], self.names)
        allocation = np.array(Path(paths["allocation.txt"]).read_text().split(), dtype=np.int64)
        if n != int(self.counts.sum()) or len(allocation) != n:
            problems.append(f"dataset has {n} rows and allocation {len(allocation)}, expected {self.counts.sum()}")
        elif not np.array_equal(np.bincount(allocation, minlength=len(self.counts) + 1)[1:], self.counts):
            problems.append("allocation.txt: subjects per cluster differ from the spec")
        for p, name in enumerate(self.names):
            if not seen[p] <= self.levels[p]:
                problems.append(f"dataset.csv: column {name} has codes outside its levels")

        for artifact, expected, tolerance in (
            ("theoretical_covariance.csv", self.covariance, MOMENT_TOLERANCE),
            ("theoretical_correlation.csv", self.correlation, MOMENT_TOLERANCE),
            ("sample_pearson.csv", pearson_from_moments(n, sums, cross), PEARSON_TOLERANCE),
        ):
            columns, rows, values = read_matrix_csv(paths[artifact])
            if columns != self.names or rows != self.names:
                problems.append(f"{artifact}: names do not match the variables")
            elif not close(expected, values, tolerance):
                worst = np.nanmax(np.abs(values - expected)) if values.shape == expected.shape else math.inf
                problems.append(f"{artifact}: differs from the oracle by up to {worst:.3g}")
        return problems


# ---------------------------------------------------------------------------
# Association workload
# ---------------------------------------------------------------------------


def sample_pairs(width: int, count: int = 48) -> list[tuple[int, int]]:
    """A fixed sample of column pairs p < q, including the first and last."""
    pairs = [(p, q) for p in range(width) for q in range(p + 1, width)]
    picked = np.random.default_rng(20170901).choice(len(pairs), size=count - 2, replace=False)
    return sorted({pairs[0], pairs[-1], *(pairs[i] for i in picked)})


class AssociationExpectation:
    """Checks the v, vcc and tauc matrices written for one input table."""

    def __init__(self, names, values: np.ndarray) -> None:
        self.names = tuple(names)
        self.oracle = {}
        for p, q in sample_pairs(len(self.names)):
            counts = contingency(values[:, p], values[:, q])
            self.oracle[p, q] = {
                "v": (cramers_v_paper(counts),) * 2,
                "vcc": (concentration(counts), concentration(counts.T)),
                "tauc": (tau_c(counts),) * 2,
            }

    def __call__(self, paths: dict[str, Path], digests: dict[str, str]) -> list[str]:
        problems = []
        for measure in MEASURES:
            matrix_name = f"{measure}_matrix.csv"
            long_name = f"{measure}_long.csv"
            if matrix_name not in paths or long_name not in paths:
                problems.append(f"missing {matrix_name} or {long_name}")
                continue
            columns, rows, values = read_matrix_csv(paths[matrix_name])
            if columns != self.names or rows != self.names:
                problems.append(f"{matrix_name}: names do not match the input header")
                continue
            if not np.array_equal(np.diag(values), np.ones(len(self.names))):
                problems.append(f"{matrix_name}: diagonal is not 1")
            if measure != "vcc" and not np.array_equal(values, values.T, equal_nan=True):
                problems.append(f"{matrix_name}: not symmetric")
            long_rows = [line.split(",") for line in Path(paths[long_name]).read_text().splitlines()]
            long_values = np.array([float(row[2]) for row in long_rows[1:]])
            if (long_rows[0] != ["p", "q", "value"]
                    or [tuple(row[:2]) for row in long_rows[1:]] != [(a, b) for a in self.names for b in self.names]
                    or not np.array_equal(long_values, values.ravel(), equal_nan=True)):
                problems.append(f"{long_name}: does not match {matrix_name}")
            for (p, q), oracle in self.oracle.items():
                forward, backward = oracle[measure]
                if not (abs(values[p, q] - forward) <= ASSOCIATION_TOLERANCE
                        and abs(values[q, p] - backward) <= ASSOCIATION_TOLERANCE):
                    problems.append(
                        f"{matrix_name}: ({self.names[p]}, {self.names[q]}) is "
                        f"{values[p, q]!r}/{values[q, p]!r}, oracle {forward!r}/{backward!r}"
                    )
        return problems
