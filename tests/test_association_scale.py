"""``association._matrix`` does not depend on the scale of its tables.

The one path from stacked pair tables to a measure's matrix takes the
tables' total n from its caller: a sample passes counts and its subject
count, a population would pass proportions and 1.  On random weighted
samples, whose tables have zero margins and, for one-level columns, a
single row or column, the counts with n and the proportions with n = 1
must give the same matrix, NaN in the same cells.  The values lie in
[-1, 1]; a cell whose exact value is 0 may read a few ulps off it from
proportions, so the tolerance is 1e-12 relative with a 1e-12 floor.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from synthcat.association import _matrix, stuart_kendall_tau_c

SETTINGS = [("v", "paper", False), ("v", "standard", False), ("vcc", "paper", False),
            ("vcc", "paper", True), ("tauc", "paper", False)]


@st.composite
def weighted_tables(draw):
    """(tables, n, sizes): the pair tables of n 1-30 weighted subjects over 2-4 columns of 1-4 levels."""
    subjects = draw(st.integers(1, 30))
    sizes = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
    positions = [draw(st.lists(st.integers(0, size - 1), min_size=subjects, max_size=subjects))
                 for size in sizes]
    weights = np.array(draw(st.lists(st.integers(1, 1000), min_size=subjects, max_size=subjects)))
    first, second = np.triu_indices(len(sizes), 1)
    tables = np.zeros((len(first), max(sizes), max(sizes)), np.int64)
    for k, (p, q) in enumerate(zip(first, second)):
        np.add.at(tables[k], (positions[p], positions[q]), weights)
    return tables, int(weights.sum()), sizes


@pytest.mark.parametrize("measure, variant, symmetrize", SETTINGS)
@settings(max_examples=200, deadline=None)
@given(weighted_tables())
# One level of the column holds every subject: 1 - (1/6 + 4/6 + 1/6)**2 is 2**-52 in floats.
@example((np.array([[[1, 0, 0], [4, 0, 0], [1, 0, 0]]]), 6, [3, 3]))
def test_counts_and_proportions_give_one_matrix(measure, variant, symmetrize, data):
    tables, n, sizes = data
    # tau_c of a pair with a one-level column divides 0 by 0.
    with np.errstate(divide="ignore", invalid="ignore"):
        counts = _matrix(tables, n, sizes, measure, variant, symmetrize)
        proportions = _matrix(tables / n, 1, sizes, measure, variant, symmetrize)
    np.testing.assert_allclose(proportions, counts, rtol=1e-12, atol=1e-12)


def test_tau_c_of_a_table_whose_squared_total_passes_int64():
    """n * n = 1.6e19 is past int64; the table's tau_c is its float copy's."""
    table = np.array([[2_000_000_000, 10], [10, 2_000_000_000]])
    assert stuart_kendall_tau_c(table) == stuart_kendall_tau_c(table.astype(float))
