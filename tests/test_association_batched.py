"""The batched kernels against the per-pair oracles.

Random small datasets mix nominal, ordinal and interval columns, leave some
declared levels unobserved and make some columns constant.  Every cell must
equal what crosstab + the reference chi_square, cramers_v and
concentration_coefficient of ``association_oracles``, or tau_c_pair_scan,
give for that pair.  crosstab runs the batched table build itself, so the
tables are checked on their own: every table of ``_pair_tables`` must equal
the subject-by-subject ``np.add.at`` count (``counted``).
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import association_oracles as oracle
from synthcat import association
from synthcat.association import (
    LevelPositions,
    association_matrix,
    chi_square,
    crosstab,
    stuart_kendall_tau_c,
    tau_c_pair_scan,
)
from synthcat.model import SpecError, VariableDomain

KINDS = ("nominal", "ordinal", "interval")
ORDERED = ("ordinal", "interval")


@st.composite
def datasets(draw):
    """(values, variables): n 2-40 rows, P 2-6 columns, 2-4 declared levels each."""
    n = draw(st.integers(2, 40))
    p_count = draw(st.integers(2, 6))
    variables, columns = [], []
    for p in range(p_count):
        size = draw(st.integers(2, 4))
        first = draw(st.integers(-2, 3))
        steps = draw(st.lists(st.integers(1, 3), min_size=size - 1, max_size=size - 1))
        levels = tuple(int(x) for x in np.cumsum([first, *steps]))
        kind = draw(st.sampled_from(KINDS))
        # A proper subset of the levels leaves some unobserved; one level
        # makes the column constant.
        observed = draw(
            st.lists(st.sampled_from(levels), min_size=1, max_size=size, unique=True)
        )
        columns.append(draw(st.lists(st.sampled_from(observed), min_size=n, max_size=n)))
        variables.append(VariableDomain(f"x{p}", levels, kind))
    return np.array(columns, dtype=np.int64).T, tuple(variables)


def pairs(variables, kinds=KINDS):
    """Pairs p < q whose kinds a measure accepts."""
    return [
        (p, q)
        for p in range(len(variables))
        for q in range(p + 1, len(variables))
        if variables[p].kind in kinds and variables[q].kind in kinds
    ]


def same(actual: float, expected: float) -> bool:
    """Bit-equal, or both NaN."""
    return actual == expected or (math.isnan(actual) and math.isnan(expected))


def assert_only_cells(matrix, cells):
    """Off-diagonal cells outside ``cells`` are NaN; the diagonal is 1."""
    expected_nan = ~np.eye(len(matrix), dtype=bool)
    for p, q in cells:
        expected_nan[p, q] = expected_nan[q, p] = False
    assert np.isnan(matrix[expected_nan]).all()
    assert (np.diag(matrix) == 1.0).all()


@settings(max_examples=100, deadline=None)
@given(datasets(), st.sampled_from(("paper", "standard")))
def test_v_matches_crosstab_and_cramers_v(data, variant):
    values, variables = data
    out = association_matrix((values, variables), "v", variant=variant).values
    cells = pairs(variables)
    assert_only_cells(out, cells)
    for p, q in cells:
        table = crosstab(values[:, p], values[:, q], variables[p].levels, variables[q].levels)
        chi2 = oracle.chi_square(table)
        assert abs(chi_square(table) - chi2) <= 1e-12 * chi2
        expected = oracle.cramers_v(table, variant)
        assert np.isnan(out[p, q]) == math.isnan(expected)
        if not math.isnan(expected):
            assert abs(out[p, q] - expected) <= 1e-12
        assert same(out[q, p], out[p, q])


@settings(max_examples=100, deadline=None)
@given(datasets(), st.booleans())
def test_vcc_matches_concentration_coefficient(data, symmetrize):
    values, variables = data
    out = association_matrix((values, variables), "vcc", symmetrize=symmetrize).values
    cells = pairs(variables)
    assert_only_cells(out, cells)
    for p, q in cells:
        table = crosstab(values[:, p], values[:, q], variables[p].levels, variables[q].levels)
        forward = oracle.concentration_coefficient(table)
        backward = oracle.concentration_coefficient(table.T)
        if symmetrize:
            forward = backward = 0.5 * (forward + backward)
        assert same(out[p, q], forward)
        assert same(out[q, p], backward)


@settings(max_examples=100, deadline=None)
@given(datasets())
def test_tauc_matches_table_and_pair_scan(data):
    """tau_c of each pair's crosstab equals the O(n^2) scan exactly, and the matrix cell."""
    values, variables = data
    out = association_matrix((values, variables), "tauc").values
    cells = pairs(variables, ORDERED)
    assert_only_cells(out, cells)
    for p, q in cells:
        x, y = values[:, p], values[:, q]
        levels_x, levels_y = variables[p].levels, variables[q].levels
        expected = stuart_kendall_tau_c(crosstab(x, y, levels_x, levels_y))
        assert expected == tau_c_pair_scan(x, y, len(levels_x), len(levels_y))
        assert out[p, q] == expected
        assert out[q, p] == expected


@pytest.mark.parametrize("measure", ["v", "vcc", "tauc", "pearson"])
def test_value_outside_declared_levels(measure):
    values = np.array([[0, 1], [1, 0], [5, 1]])
    variables = (VariableDomain("a", (0, 1)), VariableDomain("b", (0, 1)))
    with pytest.raises(SpecError, match="declared"):
        crosstab(values[:, 0], values[:, 1], variables[0].levels, variables[1].levels)
    with pytest.raises(SpecError, match="declared"):
        association_matrix((values, variables), measure)


@pytest.mark.parametrize("levels", [(1, 0), (0, 0, 1)], ids=["descending", "repeated"])
def test_crosstab_refuses_levels_that_do_not_increase(levels):
    """Every value is declared, but the levels are out of order or repeated."""
    with pytest.raises(SpecError, match="strictly increasing"):
        crosstab([1, 0, 1], [0, 1, 1], levels, (0, 1))


@pytest.mark.parametrize("measure", ["v", "vcc", "tauc", "pearson"])
def test_pair_refuses_levels_that_do_not_increase(measure):
    variables = (VariableDomain("a", (2, 1, 0)), VariableDomain("b", (0, 1)))
    with pytest.raises(SpecError, match="'a': level codes must be strictly increasing"):
        association_matrix((np.array([[0, 1], [2, 0], [1, 1]]), variables), measure)


@pytest.mark.parametrize("measure", ["v", "vcc", "tauc", "pearson"])
def test_zero_subjects_are_refused(measure):
    variables = (VariableDomain("a", (0, 1), "interval"), VariableDomain("b", (0, 1), "interval"))
    with pytest.raises(SpecError):
        association_matrix((np.empty((0, 2), np.int64), variables), measure)


def counted(x, y, levels_x, levels_y) -> np.ndarray:
    """The crosstab of two code columns, counted one subject at a time by numpy."""
    counts = np.zeros((len(levels_x), len(levels_y)), np.int64)
    np.add.at(counts, (np.searchsorted(levels_x, x), np.searchsorted(levels_y, y)), 1)
    return counts


@st.composite
def picked_positions(draw):
    """(positions, columns, sizes): n 1-30 rows of 2-5 columns with 1-300 levels each.

    Each column's first and last levels may never occur, and ``columns``
    picks two or more of them in any order.  Positions are uint16, or uint8
    (as ``generate`` and ``associate --data`` give them) where every drawn
    position fits, so a uint8 column may declare more levels than uint8 holds.
    """
    n = draw(st.integers(1, 30))
    size = st.one_of(st.integers(1, 4), st.integers(5, 300))
    sizes = draw(st.lists(size, min_size=2, max_size=5))
    columns = []
    for size in sizes:
        low = draw(st.integers(0, min(1, size - 1)))
        high = draw(st.integers(max(low, size - 2), size - 1))
        columns.append(draw(st.lists(st.integers(low, high), min_size=n, max_size=n)))
    picked = draw(st.permutations(range(len(sizes))))[: draw(st.integers(2, len(sizes)))]
    dtypes = [np.uint8, np.uint16] if max(map(max, columns)) < 256 else [np.uint16]
    positions = np.array(columns, dtype=draw(st.sampled_from(dtypes))).T
    return positions, picked, [sizes[c] for c in picked]


@settings(max_examples=200, deadline=None)
@given(picked_positions(), st.integers(1, 5))
@example((np.zeros((3, 3), np.uint8), [2, 0], [1, 1]), 2)
@example((np.array([[4, 0], [255, 1], [4, 1]], np.uint8), [0, 1], [300, 2]), 2)
def test_pair_tables_match_the_counted_tables(data, rows):
    """Every table of ``_pair_tables``, padding included, against ``np.add.at`` counts."""
    positions, columns, sizes = data
    with mock.patch.object(association, "_BLOCK_ROWS", rows):
        tables = association._pair_tables(positions, columns, sizes)
    first, second = np.triu_indices(len(columns), 1)
    expected = np.zeros((len(first), max(sizes), max(sizes)), np.int64)
    for k, (a, b) in enumerate(zip(first, second)):
        x, y = positions[:, columns[a]], positions[:, columns[b]]
        table = counted(x, y, range(sizes[a]), range(sizes[b]))
        expected[k, : sizes[a], : sizes[b]] = table
    assert tables.dtype == np.int64
    assert (tables == expected).all()


def test_pair_tables_look_nothing_up(monkeypatch):
    """v, vcc and tauc on a uint8 ``LevelPositions`` compare each block of Z.

    ``_lookup_blocks`` raises here, and every cell still matches its oracle.
    One column declares 300 levels and holds positions below 256 only, so
    its levels past 255 are compared as such, not as uint8 positions.
    """

    def looked_up(*args):
        raise AssertionError("a lookup ran")

    monkeypatch.setattr(association, "_lookup_blocks", looked_up)
    rng = np.random.default_rng(26)
    n = 2 * association._BLOCK_ROWS + 7
    sizes = (2, 3, 5, 300, 3)
    variables = tuple(
        VariableDomain(f"x{p}", tuple(range(size)), "ordinal") for p, size in enumerate(sizes)
    )
    positions = np.column_stack([rng.integers(0, min(size, 256), n) for size in sizes])
    data = LevelPositions(positions.astype(np.uint8), variables)
    v, vcc, tauc = (association_matrix(data, measure).values for measure in ("v", "vcc", "tauc"))
    for p, q in pairs(variables):
        x, y = positions[:, p], positions[:, q]
        table = counted(x, y, range(sizes[p]), range(sizes[q]))
        expected = oracle.cramers_v(table, "paper")
        assert same(v[p, q], expected) or abs(v[p, q] - expected) <= 1e-12
        assert same(vcc[p, q], oracle.concentration_coefficient(table))
        assert same(vcc[q, p], oracle.concentration_coefficient(table.T))
        assert tauc[p, q] == tau_c_pair_scan(x, y, sizes[p], sizes[q])


def test_mixed_widths_over_several_blocks():
    """2, 3, 5 and 17 declared levels, some unobserved, over more rows than one block."""
    rng = np.random.default_rng(17)
    n = 2 * association._BLOCK_ROWS + 7
    variables = tuple(
        VariableDomain(f"x{p}", tuple(range(-3, 2 * size - 3, 2)), "ordinal")
        for p, size in enumerate((2, 3, 5, 17, 17, 5, 3, 2))
    )
    values = np.column_stack(
        [rng.choice(v.levels[: v.size - (p % 3 == 1)], n) for p, v in enumerate(variables)]
    )
    paper, standard, vcc, tauc = (
        association_matrix((values, variables), measure, variant=variant).values
        for measure, variant in (("v", "paper"), ("v", "standard"), ("vcc", "paper"), ("tauc", "paper"))
    )
    for p, q in pairs(variables):
        levels = variables[p].levels, variables[q].levels
        table = counted(values[:, p], values[:, q], *levels)
        assert (crosstab(values[:, p], values[:, q], *levels) == table).all()
        for variant, v in (("paper", paper), ("standard", standard)):
            expected = oracle.cramers_v(table, variant)
            assert same(v[p, q], expected) or abs(v[p, q] - expected) <= 1e-12
        assert same(vcc[p, q], oracle.concentration_coefficient(table))
        assert same(vcc[q, p], oracle.concentration_coefficient(table.T))
        sizes = variables[p].size, variables[q].size
        assert tauc[p, q] == tau_c_pair_scan(values[:, p], values[:, q], *sizes)


def test_tauc_rejects_one_level_column():
    """The per-pair tau_c refuses a one-level table; the matrix gives its column NaN cells."""
    values = np.array([[0, 1], [0, 0], [0, 1]])
    variables = (VariableDomain("a", (0,), "ordinal"), VariableDomain("b", (0, 1), "ordinal"))
    with pytest.raises(SpecError, match="two levels"):
        stuart_kendall_tau_c(crosstab(values[:, 0], values[:, 1], (0,), (0, 1)))
    assert_only_cells(association_matrix((values, variables), "tauc").values, [])
    # The other columns' pairs are still computed.
    wide = np.column_stack([values, values[::-1, 1]])
    third = (*variables, VariableDomain("c", (0, 1), "interval"))
    out = association_matrix((wide, third), "tauc").values
    assert_only_cells(out, [(1, 2)])
    assert out[1, 2] == stuart_kendall_tau_c(crosstab(wide[:, 1], wide[:, 2], (0, 1), (0, 1)))
    # A one-level nominal column is not a tau_c pair, so nothing is raised.
    nominal = (VariableDomain("a", (0,), "nominal"), variables[1])
    assert np.isnan(association_matrix((values, nominal), "tauc").values[0, 1])


def test_tauc_rejects_single_subject():
    values = np.array([[0, 1]])
    variables = (VariableDomain("a", (0, 1), "ordinal"), VariableDomain("b", (0, 1), "ordinal"))
    with pytest.raises(SpecError, match="two subjects"):
        association_matrix((values, variables), "tauc")
