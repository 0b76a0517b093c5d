"""Empirical pairwise association measures on categorical data.

Six measures, all driven by the pairwise contingency table or the raw
level codes: the chi-square statistic, two variants of Cramer's V, the
concentration coefficient (a proportional-reduction-in-variance measure
for nominal data), Stuart-Kendall tau_c (rank concordance on rectangular
tables), and the plain Pearson correlation of level codes for interval
variables.

Each measure has one implementation, a ``_*_tables`` kernel over a stack
of tables; the per-pair functions run it on a stack of one.

Measure/kind compatibility: V and the concentration coefficient accept any
kind; tau_c needs an order (ordinal or interval); Pearson needs interval
codes.  Incompatible pairs yield NaN cells rather than errors, so one
matrix call works on mixed datasets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Dataset, KindError, SpecError, VariableDomain, level_table
from .moments import MomentMatrices

MEASURES = ("v", "vcc", "tauc", "pearson")
VARIANTS = ("paper", "standard")

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


def _columns(data) -> tuple[np.ndarray, tuple[VariableDomain, ...]]:
    """Each cell's position among its column's levels, from a Dataset or a (codes, variables) pair.

    A code that is not a declared level of its column raises SpecError.
    """
    if isinstance(data, Dataset):
        return data.positions, data.profile.variables
    codes, variables = np.asarray(data[0]), tuple(data[1])
    positions = np.empty(codes.shape, np.min_scalar_type(max(v.size for v in variables) - 1))
    for p, variable in enumerate(variables):
        levels = np.asarray(variable.levels)
        index = np.searchsorted(levels, codes[:, p])
        if not (levels[np.minimum(index, len(levels) - 1)] == codes[:, p]).all():
            raise SpecError(
                f"association: column {variable.name!r} has values outside its declared levels"
            )
        positions[:, p] = index
    return positions, variables


def crosstab(x, y, levels_x: tuple[int, ...], levels_y: tuple[int, ...]) -> ContingencyTable:
    """Cross-tabulate two code columns over their declared levels.

    The table has one row per declared x level and one column per declared
    y level, in declared order, so levels never observed still appear as
    zero margins.  It is the batched build of ``association_matrix`` on one
    pair.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape:
        raise SpecError("crosstab: columns differ in length")
    domains = (VariableDomain("x", tuple(levels_x)), VariableDomain("y", tuple(levels_y)))
    positions = _columns((np.column_stack([x, y]), domains))[0]
    rows, cols = len(levels_x), len(levels_y)
    return ContingencyTable(_pair_tables(positions, [0, 1], [rows, cols])[0, :rows, :cols])


def _check_arguments(measure: str, n: int, sizes=(), variant: str = "paper") -> None:
    """Refuse ``n`` subjects, level counts ``sizes`` or ``variant`` that ``measure`` cannot take."""
    if measure == "tauc":
        if n < 2:
            raise SpecError("tau_c: need at least two subjects")
        if min(sizes) < 2:
            raise SpecError("tau_c: need at least two levels per variable")
    elif measure == "v" and variant not in VARIANTS:
        raise SpecError(f"cramers_v: unknown variant {variant!r}")
    if n == 0:
        raise SpecError("association: all-zero contingency table")


def chi_square(table: ContingencyTable) -> float:
    """Pearson chi-square statistic, zero-margin rows/columns dropped."""
    _check_arguments("v", table.n)
    return float(_chi_square_tables(table.counts[None], table.n)[0][0])


def cramers_v(table: ContingencyTable, variant: str = "paper") -> float:
    """Cramer's V in two flavours.

    variant='paper' computes chi2 / (n * min(R, S)) with no square root;
    variant='standard' computes sqrt(chi2 / (n * (min(R, S) - 1))).  R and
    S are the table dimensions after dropping zero margins; a table left
    with a single row or column has no association to measure, which the
    standard variant reports as NaN (0/0) and the paper variant as 0.
    """
    _check_arguments("v", table.n, variant=variant)
    return float(_cramers_v_tables(table.counts[None], table.n, variant)[0])


def concentration_coefficient(table: ContingencyTable) -> float:
    """Proportional reduction in column-variable variation given the row.

        V_cc = [sum_ij pi_ij^2 / pi_i+  -  sum_j pi_+j^2] / [1 - sum_j pi_+j^2]

    Directed: the row variable is the predictor.  A degenerate column
    margin makes the denominator vanish; reported as NaN.
    """
    _check_arguments("vcc", table.n)
    return float(_concentration_tables(table.counts[None], table.n)[0])


def stuart_kendall_tau_c(x, y, m_x: int, m_y: int) -> float:
    """Stuart-Kendall tau_c over two code columns.

        tau_c = 2 (n_c - n_d) / [n^2 (m - 1) / m],   m = min(m_x, m_y)

    with n_c and n_d the concordant and discordant unordered pair counts.
    m comes from the declared level counts, not the observed ones, because
    the correction is for the table's rectangular shape.
    """
    n = len(x)
    _check_arguments("tauc", n, (m_x, m_y))
    table = crosstab(x, y, np.unique(x), np.unique(y))
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


# Rows of the table copied to float at a time by ``sample_moments``; the
# block's flat gather index takes 8 bytes per cell on top of the floats.
_MOMENT_ROWS = 2048


def _shifted_sums(positions: np.ndarray, shifted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum x and X^T X of x = ``shifted[p, position]``, one float block of rows at a time."""
    sums = np.zeros(positions.shape[1])
    cross = np.zeros((len(sums), len(sums)))
    # Row p of the C-order P x M table starts at flat index p * M.
    flat, offsets = shifted.ravel(), np.arange(len(sums)) * shifted.shape[1]
    for start in range(0, len(positions), _MOMENT_ROWS):
        x = flat.take(positions[start : start + _MOMENT_ROWS] + offsets)
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
    correlations, the diagonal 1; n = 1 gives NaN.  A code outside its column's
    declared levels raises SpecError.
    """
    return _sample_moments(*_columns(data))


def _sample_moments(positions: np.ndarray, variables) -> MomentMatrices:
    n = len(positions)
    table = level_table(variables)
    # Levels ascend, so each column's smallest position holds its minimum code.
    low = table[np.arange(len(table)), positions.min(axis=0)]
    # At every observed position x - min lies in [0, 2**64): its uint64 difference never wraps.
    shifted = np.subtract(table, low[:, None], dtype=np.uint64, casting="unsafe")
    sums, cross = _shifted_sums(positions, shifted.astype(float))
    centre = low.astype(float)
    if not n * cross.diagonal().max() < 2**53:
        centre = low + sums / n
        sums, cross = _shifted_sums(positions, table - centre[:, None])
    scaled = n * cross - np.outer(sums, sums)
    interval = np.array([v.kind == "interval" for v in variables], dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        sd = np.where(interval, np.sqrt(np.diag(scaled)), np.nan)
        cov = scaled / (n * (n - 1))
        cor = scaled / np.outer(sd, sd)
        np.fill_diagonal(cor, 1.0)
        return MomentMatrices((sums + n * centre) / n, np.diag(cov).copy(), cov, cor)


# Bytes of the float64 indicator block that ``_pair_tables`` reuses.
_BLOCK_BYTES = 1 << 18


def _pair_tables(positions: np.ndarray, columns: list[int], sizes: list[int]) -> np.ndarray:
    """Contingency tables of every pair p < q of ``columns``, zero-padded to M x M.

    ``sizes`` holds their level counts.  One indicator matrix Z (a row per
    subject, a column per declared level of every picked column: its level
    positions plus its offset) holds all tables at once: block (p, q) of
    Z^T Z is the p-by-q crosstab.  Z^T Z is accumulated over row blocks of
    one reused buffer; float64 sums of 0/1 products are exact below 2**53.
    Returns an int64 array of shape (pairs, M, M), pairs in
    ``np.triu_indices`` order, with M the largest level count.
    """
    n, count = len(positions), len(columns)
    width = sum(sizes)
    offsets = np.cumsum([0] + sizes[:-1])
    # The extra last column of Z stays zero; padding cells index it.
    rows = max(1, _BLOCK_BYTES // (8 * (width + 1)))
    block = np.empty((min(rows, n), width + 1))
    gram = np.zeros((width + 1, width + 1))
    for start in range(0, n, rows):
        part = positions[start : start + rows, columns] + offsets
        z = block[: len(part)]
        z.fill(0.0)
        z[np.arange(len(part))[:, None], part] = 1.0
        gram += z.T @ z
    m = max(sizes)
    index = np.full((count, m), width)
    for p, (offset, size) in enumerate(zip(offsets, sizes)):
        index[p, :size] = np.arange(offset, offset + size)
    first, second = np.triu_indices(count, 1)
    return gram[index[first][:, :, None], index[second][:, None, :]].astype(np.int64)


def _chi_square_tables(tables: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Chi-square and min(R, S) of each table; zero-margin rows and columns drop out."""
    rows = tables.sum(axis=2)
    cols = tables.sum(axis=1)
    live = (rows > 0)[:, :, None] & (cols > 0)[:, None, :]
    expected = rows[:, :, None] * cols[:, None, :] / n
    with np.errstate(divide="ignore", invalid="ignore"):
        cells = (tables - expected) ** 2 / expected
    chi2 = np.where(live, cells, 0.0).sum(axis=(1, 2))
    return chi2, np.minimum((rows > 0).sum(axis=1), (cols > 0).sum(axis=1))


def _cramers_v_tables(tables: np.ndarray, n: int, variant: str) -> np.ndarray:
    """``cramers_v`` of each table."""
    chi2, smaller = _chi_square_tables(tables, n)
    if variant == "paper":
        return chi2 / (n * smaller)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(smaller == 1, np.nan, np.sqrt(chi2 / (n * (smaller - 1))))


def _concentration_tables(tables: np.ndarray, n: int) -> np.ndarray:
    """``concentration_coefficient`` of each table.

    Multiplying through by n^2 clears the probabilities:
    [n sum_ij c_ij^2 / r_i - sum_j s_j^2] / [n^2 - sum_j s_j^2].  Integer
    sums, one rounded division per row, and the row terms added in row
    order keep small tables exact while n * sum_j c_ij^2 stays below 2**53.
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

    Every pairwise table comes from one batched build (``_pair_tables``)
    and goes through the same kernels that the per-pair functions
    ``cramers_v``, ``concentration_coefficient`` and ``stuart_kendall_tau_c``
    wrap; the reference arithmetic the kernels are tested against lives in
    ``tests/``.  Pearson is the correlation of ``sample_moments``.
    """
    if measure not in MEASURES:
        raise KindError(f"unknown measure {measure!r}")
    positions, variables = _columns(data)
    names = tuple(v.name for v in variables)
    if measure == "pearson":
        return AssociationMatrix(_sample_moments(positions, variables).correlation, names, measure)
    p_count = len(variables)
    out = np.full((p_count, p_count), np.nan)
    np.fill_diagonal(out, 1.0)
    keep = [p for p, v in enumerate(variables) if v.kind in _COMPATIBLE[measure]]
    if len(keep) < 2:
        return AssociationMatrix(out, names, measure)
    kept = tuple(variables[p] for p in keep)
    sizes = [v.size for v in kept]
    n = len(positions)
    _check_arguments(measure, n, sizes, variant)
    tables = _pair_tables(positions, keep, sizes)
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
