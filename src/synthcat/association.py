"""Empirical pairwise association measures on categorical data.

Four measures, all driven by the pairwise contingency table or the raw
level codes: the chi-square statistic, two variants of Cramer's V, the
concentration coefficient (a proportional-reduction-in-variance measure
for nominal data), Stuart-Kendall tau_c (rank concordance on rectangular
tables), and the plain Pearson correlation of level codes for interval
variables.

Measure/kind compatibility: V and the concentration coefficient accept any
kind; tau_c needs an order (ordinal or interval); Pearson needs interval
codes.  Incompatible pairs yield NaN cells rather than errors, so one
matrix call works on mixed datasets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Dataset, KindError, SpecError, VariableDomain
from .moments import MomentMatrices

MEASURES = ("v", "vcc", "tauc", "pearson")

# Kinds each measure accepts.
_COMPATIBLE = {
    "v": ("nominal", "ordinal", "interval"),
    "vcc": ("nominal", "ordinal", "interval"),
    "tauc": ("ordinal", "interval"),
    "pearson": ("interval",),
}


@dataclass(frozen=True, eq=False)
class ContingencyTable:
    """Cross-tabulation counts, rows = first variable's levels."""

    counts: np.ndarray

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    @property
    def row_sums(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    @property
    def column_sums(self) -> np.ndarray:
        return self.counts.sum(axis=0)


def _level_index(levels, x: np.ndarray, message: str) -> np.ndarray:
    """Position of each value of ``x`` among the sorted ``levels``.

    Raises SpecError with ``message`` if any value is not a declared level.
    """
    levels = np.asarray(levels)
    index = np.searchsorted(levels, x)
    bad = (index >= len(levels)) | (levels[np.minimum(index, len(levels) - 1)] != x)
    if bad.any():
        raise SpecError(message)
    return index


def crosstab(x, y, levels_x: tuple[int, ...], levels_y: tuple[int, ...]) -> ContingencyTable:
    """Cross-tabulate two code columns over their declared levels.

    The table has one row per declared x level and one column per declared
    y level, in declared order, so levels never observed still appear as
    zero margins.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape:
        raise SpecError("crosstab: columns differ in length")
    ix = _level_index(levels_x, x, "crosstab: values outside the declared x levels")
    iy = _level_index(levels_y, y, "crosstab: values outside the declared y levels")
    counts = np.zeros((len(levels_x), len(levels_y)), dtype=np.int64)
    np.add.at(counts, (ix, iy), 1)
    return ContingencyTable(counts)


def _dropped(table: ContingencyTable) -> np.ndarray:
    """Counts with zero-margin rows and columns removed."""
    counts = table.counts
    if counts.sum() == 0:
        raise SpecError("association: all-zero contingency table")
    counts = counts[counts.sum(axis=1) > 0]
    return counts[:, counts.sum(axis=0) > 0]


def chi_square(table: ContingencyTable) -> float:
    """Pearson chi-square statistic, zero-margin rows/columns dropped."""
    counts = _dropped(table).astype(float)
    n = counts.sum()
    expected = np.outer(counts.sum(axis=1), counts.sum(axis=0)) / n
    return float(((counts - expected) ** 2 / expected).sum())


def cramers_v(table: ContingencyTable, variant: str = "paper") -> float:
    """Cramer's V in two flavours.

    variant='paper' computes chi2 / (n * min(R, S)) with no square root;
    variant='standard' computes sqrt(chi2 / (n * (min(R, S) - 1))).  R and
    S are the table dimensions after dropping zero margins; a table left
    with a single row or column has no association to measure, which the
    standard variant reports as NaN (0/0) and the paper variant as 0.
    """
    if variant not in ("paper", "standard"):
        raise SpecError(f"cramers_v: unknown variant {variant!r}")
    counts = _dropped(table)
    n = counts.sum()
    smaller = min(counts.shape)
    chi2 = chi_square(table)
    if variant == "paper":
        return float(chi2 / (n * smaller))
    if smaller == 1:
        return math.nan
    return float(math.sqrt(chi2 / (n * (smaller - 1))))


def concentration_coefficient(table: ContingencyTable) -> float:
    """Proportional reduction in column-variable variation given the row.

        V_cc = [sum_ij pi_ij^2 / pi_i+  -  sum_j pi_+j^2] / [1 - sum_j pi_+j^2]

    Directed: the row variable is the predictor.  A degenerate column
    margin makes the denominator vanish; reported as NaN.
    """
    counts = table.counts
    n = int(counts.sum())
    if n == 0:
        raise SpecError("association: all-zero contingency table")
    # Multiply numerator and denominator by n^2 to clear the probabilities:
    # [n sum_ij c_ij^2 / r_i - sum_j s_j^2] / [n^2 - sum_j s_j^2].  Integer
    # sums with one rounded division per row keep small tables exact.
    baseline = sum(int(s) ** 2 for s in table.column_sums)
    denominator = n * n - baseline
    if denominator <= 0:
        return math.nan
    conditional = 0.0
    for r_i, row in zip(table.row_sums, counts):
        if r_i == 0:
            continue
        conditional += n * sum(int(c) ** 2 for c in row) / int(r_i)
    return float((conditional - baseline) / denominator)


def stuart_kendall_tau_c(x, y, m_x: int, m_y: int) -> float:
    """Stuart-Kendall tau_c over two code columns.

        tau_c = 2 (n_c - n_d) / [n^2 (m - 1) / m],   m = min(m_x, m_y)

    with n_c and n_d the concordant and discordant unordered pair counts.
    m comes from the declared level counts, not the observed ones, because
    the correction is for the table's rectangular shape.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    n = len(x)
    if n < 2:
        raise SpecError("tau_c: need at least two subjects")
    if min(m_x, m_y) < 2:
        raise SpecError("tau_c: need at least two levels per variable")
    levels_x = tuple(np.unique(x))
    levels_y = tuple(np.unique(y))
    table = crosstab(x, y, levels_x, levels_y)
    return float(_tau_c_tables(table.counts[None], n, min(m_x, m_y))[0])


def tau_c_pair_scan(x, y, m_x: int, m_y: int) -> float:
    """tau_c by the O(n^2) definition: scan all unordered subject pairs.

    Slow reference implementation kept as the oracle for the table-based
    production path.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    n = len(x)
    concordant = 0
    discordant = 0
    for a in range(n - 1):
        dx = x[a + 1 :] - x[a]
        dy = y[a + 1 :] - y[a]
        product = dx * dy
        concordant += int((product > 0).sum())
        discordant += int((product < 0).sum())
    m = min(m_x, m_y)
    return float(2.0 * (concordant - discordant) / (n * n * (m - 1) / m))


@dataclass(frozen=True, eq=False)
class AssociationMatrix:
    """P x P grid of pairwise values with names and a measure tag."""

    values: np.ndarray
    names: tuple[str, ...]
    measure: str

    @property
    def dimension(self) -> int:
        return len(self.names)

    def long_format(self) -> list[tuple[str, str, float]]:
        """(name_p, name_q, value) rows for heatmap tools, row-major."""
        out = []
        for p, name_p in enumerate(self.names):
            for q, name_q in enumerate(self.names):
                out.append((name_p, name_q, float(self.values[p, q])))
        return out


def _columns(data) -> tuple[np.ndarray, tuple[VariableDomain, ...]]:
    if isinstance(data, Dataset):
        return data.values, data.profile.variables
    values, variables = data
    return np.asarray(values), tuple(variables)


# Rows of the table copied to float at a time by ``sample_moments``.
_MOMENT_ROWS = 4096


def _shifted_sums(values: np.ndarray, shift) -> tuple[np.ndarray, np.ndarray]:
    """Sum x and X^T X of ``shift(block)`` over row blocks, one float block at a time."""
    sums = np.zeros(values.shape[1])
    cross = np.zeros((len(sums), len(sums)))
    for start in range(0, len(values), _MOMENT_ROWS):
        x = shift(values[start : start + _MOMENT_ROWS])
        sums += x.sum(axis=0)
        cross += x.T @ x
        del x  # free this block before the next one is made
    return sums, cross


def sample_moments(data) -> MomentMatrices:
    """Sample means, covariance (ddof 1) and Pearson correlation of the codes.

    The sums run over x' = x - min x per column; S = n Sum x'_p x'_q - Sum x'_p
    Sum x'_q does not change under the shift.  While n max_p Sum x'_p^2 < 2**53,
    every partial sum and S are exact integers in float64, in any summation order
    (Cauchy-Schwarz bounds them all), and the covariance S / (n (n - 1)) and
    correlation S_pq / (sqrt S_pp sqrt S_qq) take elementwise IEEE operations only,
    so their bytes do not depend on the machine.  Beyond that bound a second pass
    centres on the float means.  Non-interval and constant columns get NaN
    correlations, the diagonal 1; n = 1 gives NaN.
    """
    values, variables = _columns(data)
    n = len(values)
    low = values.min(axis=0)
    # x - min lies in [0, 2**64), so its uint64 difference never wraps.
    sums, cross = _shifted_sums(
        values, lambda x: np.subtract(x, low, dtype=np.uint64, casting="unsafe").astype(float)
    )
    centre = low.astype(float)
    if not n * cross.diagonal().max() < 2**53:
        centre = low + sums / n
        sums, cross = _shifted_sums(values, lambda x: x - centre)
    scaled = n * cross - np.outer(sums, sums)
    interval = np.array([v.kind == "interval" for v in variables], dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        sd = np.where(interval, np.sqrt(np.diag(scaled)), np.nan)
        cov = scaled / (n * (n - 1))
        cor = scaled / np.outer(sd, sd)
        np.fill_diagonal(cor, 1.0)
        return MomentMatrices((sums + n * centre) / n, np.diag(cov).copy(), cov, cor)


def pearson_matrix(data) -> AssociationMatrix:
    """Sample Pearson correlations of the level codes: ``sample_moments(data).correlation``."""
    names = tuple(v.name for v in _columns(data)[1])
    return AssociationMatrix(sample_moments(data).correlation, names, "pearson")


# Bytes of the float64 indicator block that ``_pair_tables`` reuses.
_BLOCK_BYTES = 1 << 18


def _level_columns(values: np.ndarray, columns: list[int], variables) -> np.ndarray:
    """Each value's column in the one-hot indicator: level index plus offset.

    ``columns`` picks the data columns and ``variables`` their domains;
    column p's levels occupy indicator columns offset_p .. offset_p + M_p - 1.
    Raises like ``crosstab`` on a value outside the declared levels.
    """
    width = sum(v.size for v in variables)
    out = np.empty((len(values), len(columns)), dtype=np.min_scalar_type(width))
    offset = 0
    for k, (p, variable) in enumerate(zip(columns, variables)):
        index = _level_index(
            variable.levels,
            values[:, p],
            f"association: column {variable.name!r} has values outside its declared levels",
        )
        out[:, k] = index + offset
        offset += variable.size
    return out


def _pair_tables(columns: np.ndarray, sizes: list[int]) -> np.ndarray:
    """Contingency tables of every column pair p < q, zero-padded to M x M.

    One indicator matrix Z (a row per subject, a column per declared level
    of every variable) holds all tables at once: block (p, q) of Z^T Z is
    the p-by-q crosstab.  Z^T Z is accumulated over row blocks of one
    reused buffer; float64 sums of 0/1 products are exact below 2**53.
    Returns an int64 array of shape (pairs, M, M), pairs in ``np.triu_indices``
    order, with M the largest level count.
    """
    n, count = columns.shape
    width = sum(sizes)
    # The extra last column of Z stays zero; padding cells index it.
    rows = max(1, _BLOCK_BYTES // (8 * (width + 1)))
    block = np.empty((min(rows, n), width + 1))
    gram = np.zeros((width + 1, width + 1))
    for start in range(0, n, rows):
        part = columns[start : start + rows]
        z = block[: len(part)]
        z.fill(0.0)
        z[np.arange(len(part))[:, None], part] = 1.0
        gram += z.T @ z
    m = max(sizes)
    offsets = np.cumsum([0] + sizes[:-1])
    index = np.full((count, m), width)
    for p, (offset, size) in enumerate(zip(offsets, sizes)):
        index[p, :size] = np.arange(offset, offset + size)
    first, second = np.triu_indices(count, 1)
    return gram[index[first][:, :, None], index[second][:, None, :]].astype(np.int64)


def _cramers_v_tables(tables: np.ndarray, n: int, variant: str) -> np.ndarray:
    """``cramers_v`` of each table; zero-margin rows and columns drop out."""
    rows = tables.sum(axis=2)
    cols = tables.sum(axis=1)
    live = (rows > 0)[:, :, None] & (cols > 0)[:, None, :]
    expected = rows[:, :, None] * cols[:, None, :] / n
    with np.errstate(divide="ignore", invalid="ignore"):
        cells = (tables - expected) ** 2 / expected
    chi2 = np.where(live, cells, 0.0).sum(axis=(1, 2))
    smaller = np.minimum((rows > 0).sum(axis=1), (cols > 0).sum(axis=1))
    if variant == "paper":
        return chi2 / (n * smaller)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(smaller == 1, np.nan, np.sqrt(chi2 / (n * (smaller - 1))))


def _concentration_tables(tables: np.ndarray, n: int) -> np.ndarray:
    """``concentration_coefficient`` of each table, with the same arithmetic.

    Integer sums, one rounded division per row, and the row terms added in
    row order, so every value equals the per-table function bit for bit
    while n * sum_j c_ij^2 stays below 2**53.
    """
    rows = tables.sum(axis=2)
    baseline = (tables.sum(axis=1) ** 2).sum(axis=1)
    denominator = n * n - baseline
    squares = (tables**2).sum(axis=2) * float(n)
    conditional = np.zeros(len(tables))
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(tables.shape[1]):
            conditional += np.where(rows[:, i] > 0, squares[:, i] / rows[:, i], 0.0)
        values = (conditional - baseline) / denominator
    return np.where(denominator > 0, values, np.nan)


def _tau_c_tables(tables: np.ndarray, n: int, m: int | np.ndarray) -> np.ndarray:
    """tau_c of each table, with ``m`` its (scalar or per-table) min level count.

    Each cell pairs with the cells strictly south-east of it (concordant)
    and strictly south-west (discordant); ties in either coordinate count
    for neither side.  n_c - n_d comes from 2-D suffix sums.
    """
    # below_right[i, j] = counts in rows > i and columns > j.
    tail = np.cumsum(np.cumsum(tables[:, ::-1, ::-1], axis=1), axis=2)[:, ::-1, ::-1]
    below_right = np.zeros_like(tables)
    below_right[:, :-1, :-1] = tail[:, 1:, 1:]
    # below_left[i, j] = counts in rows > i and columns < j.
    left = np.cumsum(np.cumsum(tables[:, ::-1], axis=1)[:, ::-1], axis=2)
    below_left = np.zeros_like(tables)
    below_left[:, :-1, 1:] = left[:, 1:, :-1]
    difference = (tables * (below_right - below_left)).sum(axis=(1, 2))
    return 2.0 * difference / (n * n * (m - 1) / m)


def association_matrix(
    data,
    measure: str,
    variant: str = "paper",
    symmetrize: bool = False,
) -> AssociationMatrix:
    """All pairwise values of one measure; NaN where kinds are incompatible.

    The concentration coefficient is directed, so cell (p, q) holds the
    p-predicts-q value and (q, p) its reverse unless ``symmetrize`` averages
    the two.  The other measures are symmetric as defined.

    Every pairwise table comes from one batched build (``_pair_tables``);
    each cell equals the per-pair functions ``cramers_v``,
    ``concentration_coefficient`` and ``stuart_kendall_tau_c``.
    """
    if measure not in MEASURES:
        raise KindError(f"unknown measure {measure!r}")
    if measure == "pearson":
        return pearson_matrix(data)
    values, variables = _columns(data)
    p_count = len(variables)
    out = np.full((p_count, p_count), np.nan)
    np.fill_diagonal(out, 1.0)
    names = tuple(v.name for v in variables)
    keep = [p for p, v in enumerate(variables) if v.kind in _COMPATIBLE[measure]]
    if len(keep) < 2:
        return AssociationMatrix(out, names, measure)
    kept = tuple(variables[p] for p in keep)
    sizes = [v.size for v in kept]
    n = len(values)
    if measure == "tauc":
        if n < 2:
            raise SpecError("tau_c: need at least two subjects")
        if min(sizes) < 2:
            raise SpecError("tau_c: need at least two levels per variable")
    elif measure == "v" and variant not in ("paper", "standard"):
        raise SpecError(f"cramers_v: unknown variant {variant!r}")
    if n == 0:
        raise SpecError("association: all-zero contingency table")
    tables = _pair_tables(_level_columns(values, keep, kept), sizes)
    first, second = np.triu_indices(len(keep), 1)
    p, q = np.asarray(keep)[first], np.asarray(keep)[second]
    if measure == "v":
        out[p, q] = out[q, p] = _cramers_v_tables(tables, n, variant)
    elif measure == "tauc":
        size = np.asarray(sizes)
        out[p, q] = out[q, p] = _tau_c_tables(tables, n, np.minimum(size[first], size[second]))
    else:
        forward = _concentration_tables(tables, n)
        backward = _concentration_tables(tables.transpose(0, 2, 1), n)
        if symmetrize:
            forward = backward = 0.5 * (forward + backward)
        out[p, q] = forward
        out[q, p] = backward
    return AssociationMatrix(out, names, measure)
