"""Empirical pairwise association measures on categorical data.

Six measures, all driven by the pairwise contingency table or the raw
level codes: the chi-square statistic, two variants of Cramer's V, the
concentration coefficient (a proportional-reduction-in-variance measure
for nominal data), Stuart-Kendall tau_c (rank concordance on rectangular
tables), and the plain Pearson correlation of level codes for interval
variables.

Each measure has one ``_*_tables`` kernel over stacked tables, and one path,
``_matrix``, runs the kernels for the matrix and the per-pair functions alike.

Measure/kind compatibility: V and the concentration coefficient accept any
kind; tau_c needs an order (ordinal or interval); Pearson needs interval
codes.  Incompatible pairs yield NaN cells rather than errors, so one
matrix call works on mixed datasets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Dataset, SpecError, VariableDomain, _short, level_table
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
class LevelPositions:
    """Cells given as positions: ``positions[i, p]`` indexes ``variables[p].levels``.

    The measures take it as they take a ``Dataset``, without a lookup.
    Construction raises SpecError unless ``positions`` is an n x P array of
    unsigned integers, P > 0, each below its column's level count.
    """

    positions: np.ndarray
    variables: tuple[VariableDomain, ...]

    def __post_init__(self) -> None:
        sizes = [v.size for v in self.variables]
        shape = self.positions.shape
        if self.positions.ndim != 2 or not 0 < len(sizes) == shape[1] or self.positions.dtype.kind != "u":
            raise SpecError(f"association: positions {shape} do not fit {len(sizes)} columns")
        if len(self.positions) and (self.positions.max(axis=0) >= sizes).any():
            raise SpecError("association: a position is past its column's levels")


def _columns(data) -> tuple[np.ndarray, tuple[VariableDomain, ...]]:
    """Each cell's position among its column's levels, and the columns' domains.

    ``data`` is a Dataset, a LevelPositions or a (codes, variables) pair.
    Only a pair is looked up, by ``_level_positions``; codes that are not n x P
    for P > 0 variables raise SpecError.  Declared levels that do not strictly
    increase raise SpecError for all three.
    """
    if isinstance(data, Dataset):
        return data.positions, _increasing(data.profile.variables)
    if isinstance(data, LevelPositions):
        return data.positions, _increasing(data.variables)
    codes, variables = np.asarray(data[0]), tuple(data[1])
    if codes.ndim != 2 or codes.shape[1] != len(variables) or not variables:
        raise SpecError(f"association: codes {codes.shape} do not fit {len(variables)} columns")
    return _level_positions(codes, _increasing(variables))[1], variables


def _increasing(variables: tuple[VariableDomain, ...]) -> tuple[VariableDomain, ...]:
    """``variables``, once each one's declared levels strictly increase."""
    for v in variables:
        if any(a >= b for a, b in zip(v.levels, v.levels[1:])):
            name = _short.repr(v.name)
            raise SpecError(f"association: variable {name}: level codes must be strictly increasing")
    return variables


def _consecutive(variables: tuple[VariableDomain, ...]) -> bool:
    """Whether every variable's levels are consecutive integers (SNP 0/1/2, binary 0/1)."""
    return all(tuple(v.levels) == tuple(range(v.levels[0], v.levels[0] + v.size)) for v in variables)


# Rows per block of ``_block``, ``_level_positions`` and ``report``'s code writer, read at
# each call.  Only the bits of ``sample_moments``' centred pass depend on it.
_BLOCK_ROWS = 1024


def _level_positions(codes: np.ndarray, variables=None) -> tuple[list[list[int]], np.ndarray]:
    """Each column's levels, and each cell's position among them.

    The levels are each variable's declared levels or, without ``variables``,
    the codes each column holds; a code that is not declared raises SpecError
    naming the first such column.  Integer codes whose columns each span
    fewer integers than there are rows mark one mask over all the spans,
    filled and then read ``_BLOCK_ROWS`` rows at a time; other codes go
    through ``np.unique`` per column.  Declared levels rank each column's
    observed codes by a ``searchsorted`` on those few.  Positions are the
    narrowest unsigned type that holds every column's level count.
    """
    n = len(codes)
    masked = codes.dtype.kind in "iu" and n > 0
    if masked:
        low = codes.min(axis=0)
        # high - low in uint64 never wraps, whatever the codes.
        span = np.subtract(codes.max(axis=0), low, dtype=np.uint64, casting="unsafe")
        masked = (span < n).all()
    if masked:
        # Column p's integers low[p]..high[p] own the mask slots from start[p] on;
        # a cell's slot is its code + offset, and any wrap in intp cancels out.
        length = span.astype(np.intp) + 1
        start = np.cumsum(length) - length
        offset = start - low.astype(np.intp)
        blocks = [slice(a, a + _BLOCK_ROWS) for a in range(0, n, _BLOCK_ROWS)]
        present = np.zeros(start[-1] + length[-1], bool)
        for block in blocks:
            present[np.add(codes[block], offset, dtype=np.intp, casting="unsafe")] = True
        masks = np.split(present, start[1:])
        observed = [np.flatnonzero(mask) + base for mask, base in zip(masks, low)]
    else:
        observed, inverses = [], []
        for column in codes.T:
            distinct, inverse = np.unique(column, return_inverse=True)
            observed.append(distinct)
            # Narrowed at once, so the inverses never add up to an n x P intp array.
            inverses.append(inverse.astype(np.min_scalar_type(len(distinct) - 1)))
    levels = observed if variables is None else [np.asarray(v.levels) for v in variables]
    ranks = [np.searchsorted(declared, seen) for declared, seen in zip(levels, observed)]
    for p, (declared, seen, index) in enumerate(zip(levels, observed, ranks)):
        if not (declared[np.minimum(index, len(declared) - 1)] == seen).all():
            name = _short.repr(variables[p].name if variables else p)
            raise SpecError(f"association: column {name} has values outside its declared levels")
    positions = np.empty(codes.shape, np.min_scalar_type(max(map(len, levels)) - 1))
    if masked:
        lookup = np.zeros(len(present), positions.dtype)
        lookup[present] = np.concatenate(ranks)
        for block in blocks:
            slots = np.add(codes[block], offset, dtype=np.intp, casting="unsafe")
            lookup.take(slots, out=positions[block], mode="clip")
    else:
        for p, inverse in enumerate(inverses):
            positions[:, p] = ranks[p][inverse]
    return [column.tolist() for column in levels], positions


def crosstab(x, y, levels_x: tuple[int, ...], levels_y: tuple[int, ...]) -> np.ndarray:
    """Cross-tabulate two code columns over their declared levels: R x S int64 counts.

    The table has one row per declared x level and one column per declared
    y level, in declared order, so levels never observed still appear as
    zero margins.  It is the batched build of ``association_matrix`` on one
    pair.  Columns that differ in shape raise SpecError.
    """
    x, y = np.asarray(x), np.asarray(y)
    if x.shape != y.shape:
        raise SpecError("crosstab: columns differ in length")
    domains = (VariableDomain("x", tuple(levels_x)), VariableDomain("y", tuple(levels_y)))
    positions = _columns((np.column_stack([x, y]), domains))[0]
    rows, cols = len(levels_x), len(levels_y)
    return _pair_tables(positions, [0, 1], [rows, cols])[0, :rows, :cols]


def _checked(table, measure: str) -> tuple[np.ndarray, float]:
    """``table`` as float64 and its total n; SpecError unless it is a 2-D table of
    finite, non-negative counts that ``measure`` takes.  The kernels take float
    tables: int64 margins' products wrap once a total passes about 3e9."""
    table = np.asarray(table, float)
    n = table.sum().item()
    if table.ndim != 2:
        raise SpecError(f"association: a contingency table is 2-D, not of shape {table.shape}")
    if not (np.isfinite(table) & (table >= 0)).all():
        raise SpecError("association: a contingency table's cells must be finite and non-negative")
    if measure == "tauc" and (n < 2 or min(table.shape) < 2):
        raise SpecError("tau_c: need at least two subjects and two levels per variable")
    if n == 0:
        raise SpecError("association: all-zero contingency table")
    return table, n


def chi_square(table) -> float:
    """Pearson chi-square statistic of an R x S table, zero-margin rows/columns dropped."""
    table, n = _checked(table, "v")
    return float(_chi_square_tables(table[None], n)[0][0])


def cramers_v(table, variant: str = "paper") -> float:
    """Cramer's V of an R x S table, in two flavours.

    variant='paper' computes chi2 / (n * min(R, S)) with no square root;
    variant='standard' computes sqrt(chi2 / (n * (min(R, S) - 1))).  R and
    S are the table dimensions after dropping zero margins; a table left
    with a single row or column has no association to measure, which the
    standard variant reports as NaN (0/0) and the paper variant as 0.
    """
    if variant not in VARIANTS:
        raise SpecError(f"cramers_v: unknown variant {variant!r}")
    table, n = _checked(table, "v")
    return float(_matrix(table[None], n, table.shape, "v", variant)[0, 1])


def concentration_coefficient(table) -> float:
    """Proportional reduction in column-variable variation given the row, of an R x S table.

        V_cc = [sum_ij pi_ij^2 / pi_i+  -  sum_j pi_+j^2] / [1 - sum_j pi_+j^2]

    Directed: the row variable is the predictor.  A degenerate column
    margin makes the denominator vanish; reported as NaN.
    """
    table, n = _checked(table, "vcc")
    return float(_matrix(table[None], n, table.shape, "vcc")[0, 1])


def stuart_kendall_tau_c(table) -> float:
    """Stuart-Kendall tau_c of an R x S table, rows and columns in level order.

        tau_c = 2 (n_c - n_d) / [n^2 (m - 1) / m],   m = min(R, S)

    with n_c and n_d the concordant and discordant unordered pair counts.
    Zero margins count towards m (``crosstab`` keeps every declared level),
    because the correction is for the table's rectangular shape.
    """
    table, n = _checked(table, "tauc")
    return float(_matrix(table[None], n, table.shape, "tauc")[0, 1])


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


def _block(n: int, width: int, values, order: str = "C") -> np.ndarray:
    """An empty block buffer, ``width`` columns wide, for a reader to refill with ``values``.

    It has ``_BLOCK_ROWS`` rows (read at each call), or ``n`` where there are
    fewer, and at least one.  It is float32 when ``values`` are integral and
    rows * max|values|**2 < 2**24: every product and every partial sum of a
    block's sums and Gram is then an integer below 2**24, exact in float32
    whatever order the BLAS adds them in, and equal to the float64 block's
    (itself exact).  At 1024 rows that holds to max|values| = 127.  Otherwise
    it is float64.  ``order`` "F" suits a reader that gathers a list of columns.
    """
    rows = max(1, min(_BLOCK_ROWS, n))
    values = np.asarray(values, float)
    top = np.abs(values).max(initial=0)
    exact = (values == np.round(values)).all() and rows * top**2 < 2**24
    return np.empty((rows, width), np.float32 if exact else float, order)


def _gram(blocks, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Column sums and X^T X, in float64, of the row blocks of X; each block is added in turn."""
    sums = np.zeros(width)
    cross = np.zeros((width, width))
    for x in blocks:
        sums += x.sum(axis=0)
        cross += x.T @ x
    return sums, cross


def _cast_blocks(positions: np.ndarray, columns, operand, block: np.ndarray, ufunc=np.add):
    """Yield ``ufunc(positions[:, columns], operand)`` cast into ``block``, ``len(block)`` rows at a time.

    ``columns`` is a list of column indices, or ``slice(None)`` for every
    column (each block then reads a view of ``positions``, not a copy).
    ``operand`` (offsets to add or subtract, levels to compare) is a scalar or
    one per column; ``block`` may be strided.
    """
    for start in range(0, len(positions), len(block)):
        part = positions[start : start + len(block), columns]
        ufunc(part, operand, out=block[: len(part)], casting="unsafe")
        yield block[: len(part)]


def _lookup_blocks(positions: np.ndarray, columns, table: np.ndarray, block: np.ndarray):
    """Yield x_c = ``table[c, positions[:, columns[c]]]``, ``len(block)`` rows at a time, in ``block``.

    ``table`` takes ``block``'s dtype: floats in the Gram, byte tokens in the
    code writer.  Each block's flat table indices are cast into one index
    buffer, made once.  ``take`` runs in ``mode="clip"``: its default bounds
    check would write every block to a temporary first, and no index is out
    of bounds.  Every caller's positions are already checked to lie below
    their column's level count (a ``Dataset`` and a ``LevelPositions`` at
    construction, a ``(codes, variables)`` pair by ``_level_positions``), and
    ``table`` has a column for every level.
    """
    flat = table.astype(block.dtype).ravel()
    # Row c of the C-order width x M table starts at flat index c * M.
    offsets = np.arange(len(table)) * table.shape[1]
    for index in _cast_blocks(positions, columns, offsets, np.empty(block.shape, np.intp)):
        yield flat.take(index, out=block[: len(index)], mode="clip")


def sample_moments(data) -> MomentMatrices:
    """Sample means, covariance (ddof 1) and Pearson correlation of the codes.

    The sums run over x' = x - min x per column; S = n Sum x'_p x'_q - Sum x'_p
    Sum x'_q does not change under the shift.  While n max_p Sum x'_p^2 < 2**53,
    every partial sum and S are exact integers in float64, in any summation order
    (Cauchy-Schwarz bounds them all), and the covariance S / (n (n - 1)) and
    correlation S_pq / (sqrt S_pp sqrt S_qq) take elementwise IEEE operations only,
    so their bytes do not depend on the machine.  Beyond that bound a second pass
    centres on the float means.  Both passes go through ``_gram``, whose row
    blocks of P floats each are never larger than the P x P result once P is at
    least the block's row count.  Where every column's levels are consecutive
    integers (SNP 0/1/2, binary 0/1), x' is the position less the column's
    lowest observed one, and the first pass casts that difference out of the
    positions, whether or not the lowest declared level occurs; other columns
    look x' up in the shifted level table.  The first pass's 1024-row blocks
    are float32 while every x' < 128, else float64; their sums are exact
    integers either way, so the bytes do not depend on the machine
    (``test_ladder_digests_hold_under_other_blas_kernels`` checks other BLAS
    kernels).  Non-interval and constant columns get NaN correlations, the
    diagonal 1; n = 1 gives NaN.  Zero subjects, or a code outside its
    column's declared levels, raise SpecError.
    """
    return _sample_moments(*_columns(data))


def _sample_moments(positions: np.ndarray, variables) -> MomentMatrices:
    n = len(positions)
    if n == 0:
        raise SpecError("sample moments: need at least one subject")
    table = level_table(variables)
    # Levels ascend, so each column's smallest position holds its minimum code.
    lowest = positions.min(axis=0)
    low = table[np.arange(len(table)), lowest]
    # At every observed position x - min lies in [0, 2**64): its uint64 difference never wraps.
    shifted = np.subtract(table, low[:, None], dtype=np.uint64, casting="unsafe")
    # Positions below a column's lowest observed one, and the padding, are never
    # read; zeroed, they cannot wrap to about 2**64 and make the blocks float64.
    ramp = np.arange(table.shape[1])
    shifted[(ramp < lowest[:, None]) | (ramp >= np.array([[v.size] for v in variables]))] = 0
    block = _block(n, len(table), shifted)
    if _consecutive(variables):
        blocks = _cast_blocks(positions, slice(None), lowest, block, np.subtract)
    else:
        blocks = _lookup_blocks(positions, slice(None), shifted, block)
    sums, cross = _gram(blocks, len(table))
    centre = low.astype(float)
    if not n * cross.diagonal().max() < 2**53:
        centre = low + sums / n
        centred = table - centre[:, None]
        blocks = _lookup_blocks(positions, slice(None), centred, _block(n, len(table), centred))
        sums, cross = _gram(blocks, len(table))
    scaled = n * cross - np.outer(sums, sums)
    interval = np.array([v.kind == "interval" for v in variables], dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        sd = np.where(interval, np.sqrt(np.diag(scaled)), np.nan)
        cov = scaled / (n * (n - 1))
        cor = scaled / np.outer(sd, sd)
        np.fill_diagonal(cor, 1.0)
        return MomentMatrices((sums + n * centre) / n, np.diag(cov).copy(), cov, cor)


def _pair_tables(positions: np.ndarray, columns: list[int], sizes: list[int]) -> np.ndarray:
    """Contingency tables of every pair p < q of ``columns``, zero-padded to M x M.

    ``sizes`` holds their level counts.  One indicator matrix Z (a row per
    subject) has a column per declared level of every picked column but its
    last.  Block (p, q) of Z^T Z is the p-by-q crosstab without its last row
    and column; those read the margins, Z's column sums and n, and become, in
    int64, the margins less the other cells.  Z is compared (``np.equal``)
    out of the positions in row blocks of rows x width floats, width (0 or
    more) being the total level count less one per column.  Z holds 0 and 1, so its
    blocks are float32 (while a block has fewer than 2**24 rows) and each
    block's counts are exact integers in any BLAS order; the float64 totals
    are exact below 2**53, and the tables do not depend on the machine.
    Returns int64 tables (pairs, M, M), M the largest level count, in ``np.triu_indices`` order.
    """
    count, m, last = len(columns), max(sizes), np.asarray(sizes) - 1
    width = int(last.sum())
    # Z's column c is 1 where the picked column owner[c] holds level position
    # level[c].  index[p, l] is the Gram row of picked column p's level l: row
    # width (Z's sums, then n) for its last level, the zero row for padding.
    # level is compared in a dtype that holds it, whatever the positions' width.
    owner = np.repeat(columns, last)
    level = np.concatenate([np.arange(size) for size in last])
    level = level.astype(np.promote_types(positions.dtype, np.min_scalar_type(m)))
    block = _block(len(positions), width, (0, 1), "F")
    sums, cross = _gram(_cast_blocks(positions, owner, level, block, np.equal), width)
    gram = np.pad(np.block([[cross, sums[:, None]], [sums, len(positions)]]), (0, 1)).astype(np.int64)
    index = np.full((count, m), width + 1)
    index[np.repeat(np.arange(count), last), level] = np.arange(width)
    index[np.arange(count), last] = width
    first, second = np.triu_indices(count, 1)
    tables = gram[index[first][:, :, None], index[second][:, None, :]]
    # Margins less the other cells: the last row's counts, then the last column's.
    pairs, row, col = np.arange(len(first)), last[first], last[second]
    tables[pairs, row] -= tables.sum(axis=1) - tables[pairs, row]
    tables[pairs, :, col] -= tables.sum(axis=2) - tables[pairs, :, col]
    return tables


def _chi_square_tables(tables: np.ndarray, n: float) -> tuple[np.ndarray, np.ndarray]:
    """Chi-square and min(R, S) of each table; zero-margin rows and columns drop out."""
    rows = tables.sum(axis=2)
    cols = tables.sum(axis=1)
    live = (rows > 0)[:, :, None] & (cols > 0)[:, None, :]
    expected = rows[:, :, None] * cols[:, None, :] / n
    with np.errstate(divide="ignore", invalid="ignore"):
        cells = (tables - expected) ** 2 / expected
    chi2 = np.where(live, cells, 0.0).sum(axis=(1, 2))
    return chi2, np.minimum((rows > 0).sum(axis=1), (cols > 0).sum(axis=1))


def _concentration_tables(tables: np.ndarray, n: float) -> np.ndarray:
    """``concentration_coefficient`` of each float table.

    Multiplying through by n^2 clears the probabilities:
    [n sum_ij c_ij^2 / r_i - sum_j s_j^2] / [n^2 - sum_j s_j^2].  Float
    sums of counts, exact integers below 2**53, one rounded division per
    row, and the row terms added in row order keep small tables exact while
    n * sum_j c_ij^2 stays below 2**53.
    """
    rows, cols = tables.sum(axis=2), tables.sum(axis=1)
    baseline = (cols**2).sum(axis=1)
    denominator = n * n - baseline
    squares = (tables**2).sum(axis=2) * float(n)
    conditional = np.zeros(len(tables))
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(tables.shape[1]):
            conditional += np.where(rows[:, i] > 0, squares[:, i] / rows[:, i], 0.0)
        values = (conditional - baseline) / denominator
    # A single column level in use makes the denominator 0, or round-off in proportions.
    return np.where((cols > 0).sum(axis=1) > 1, values, np.nan)


def _tau_c_tables(tables: np.ndarray, n: float, m: np.ndarray) -> np.ndarray:
    """tau_c of each float table, ``m`` its min level count.

    Each cell pairs with the cells strictly south-east of it (concordant)
    and strictly south-west (discordant); ties in either coordinate count
    for neither side.  n_c - n_d comes from 2-D suffix sums, each an exact
    integer in float64 while n^2 stays below 2**53.
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
    return 2.0 * difference / (n * n * (m - 1.0) / m)


def _matrix(tables: np.ndarray, n, sizes, measure: str, variant="paper", symmetrize=False) -> np.ndarray:
    """K x K values, diagonal 1, of ``measure`` on pair tables stacked in ``np.triu_indices`` order.

    ``n`` is their total (1 for proportions), ``sizes`` the K level counts.  tau_c's m is the pair's
    smaller count; vcc's (p, q) is p-predicts-q, (q, p) the reverse, or both their mean if ``symmetrize``.
    """
    first, second = np.triu_indices(len(sizes), 1)
    if measure == "v":
        chi2, smaller = _chi_square_tables(tables, n)
        with np.errstate(divide="ignore", invalid="ignore"):
            forward = backward = chi2 / (n * smaller) if variant == "paper" else np.where(
                smaller == 1, np.nan, np.sqrt(chi2 / (n * (smaller - 1))))
    elif measure == "tauc":
        forward = backward = _tau_c_tables(tables, n, np.asarray(sizes)[[first, second]].min(axis=0))
    else:
        forward = _concentration_tables(tables, n)
        backward = _concentration_tables(tables.transpose(0, 2, 1), n)
        if symmetrize:
            forward = backward = 0.5 * (forward + backward)
    out = np.eye(len(sizes))
    out[first, second], out[second, first] = forward, backward
    return out


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
    and goes through ``_matrix``, as the per-pair functions' one table does;
    the reference arithmetic it is tested against lives in ``tests/``.
    Pearson is the correlation of ``sample_moments``.
    """
    if measure not in MEASURES or variant not in VARIANTS:
        raise SpecError(f"association: unknown measure {measure!r} or variant {variant!r}")
    positions, variables = _columns(data)
    names = tuple(v.name for v in variables)
    if measure == "pearson":
        return AssociationMatrix(_sample_moments(positions, variables).correlation, names, measure)
    out = np.where(np.eye(len(variables)), 1.0, np.nan)
    # A one-level column has no order for tau_c: its cells are NaN, as an incompatible kind's.
    keep = [p for p, v in enumerate(variables)
            if v.kind in _COMPATIBLE[measure] and (v.size > 1 or measure != "tauc")]
    if len(keep) < 2:
        return AssociationMatrix(out, names, measure)
    sizes = [variables[p].size for p in keep]
    tables = _pair_tables(positions, keep, sizes).astype(float)
    # Each table holds every subject, so the first is refused where the per-pair functions refuse it.
    n = _checked(tables[0], measure)[1]
    out[np.ix_(keep, keep)] = _matrix(tables, n, sizes, measure, variant, symmetrize)
    return AssociationMatrix(out, names, measure)
