"""The dataset and allocation writers against ``np.savetxt`` as oracle."""

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from synthcat import report
from synthcat.model import ClusterSpec, Dataset, ProfileMatrix, SpecError, VariableDomain
from synthcat.report import write_allocation, write_dataset_csv


def make_dataset(values, levels, assignments, cluster_count, names=None):
    """A hand-built Dataset: only what the writers read is meaningful."""
    values = np.asarray(values, dtype=np.int64).reshape(len(assignments), len(levels))
    names = names or [f"v{p}" for p in range(len(levels))]
    variables = tuple(VariableDomain(n, tuple(lv)) for n, lv in zip(names, levels))
    clusters = ClusterSpec((1.0 / cluster_count,) * cluster_count, (0,) * cluster_count)
    return Dataset(
        values=values,
        assignments=np.asarray(assignments, dtype=np.int64),
        profile=ProfileMatrix(variables, ()),
        clusters=clusters,
        seed=0,
    )


def assert_writers_match_savetxt(dataset, directory: Path):
    write_dataset_csv(directory / "dataset.csv", dataset)
    write_allocation(directory / "allocation.txt", dataset)
    np.savetxt(
        directory / "oracle.csv",
        dataset.values,
        fmt="%d",
        delimiter=",",
        header=",".join(dataset.variable_names),
        comments="",
    )
    np.savetxt(directory / "oracle.txt", dataset.assignments, fmt="%d")
    assert (directory / "dataset.csv").read_bytes() == (directory / "oracle.csv").read_bytes()
    assert (directory / "allocation.txt").read_bytes() == (directory / "oracle.txt").read_bytes()


@st.composite
def datasets(draw):
    """Columns with 1-4 levels in [-1500, 1500], 1-7 columns, C in 1..15."""
    columns = draw(st.integers(1, 7))
    levels = [
        sorted(draw(st.sets(st.integers(-1500, 1500), min_size=1, max_size=4)))
        for _ in range(columns)
    ]
    names = [
        draw(st.text("abcxyz_0123456789", min_size=1, max_size=4)) for _ in range(columns)
    ]
    rows = draw(st.integers(1, 13))
    values = [
        [draw(st.sampled_from(levels[p])) for p in range(columns)] for _ in range(rows)
    ]
    cluster_count = draw(st.integers(1, 15))
    assignments = draw(st.lists(st.integers(1, cluster_count), min_size=rows, max_size=rows))
    return make_dataset(values, levels, assignments, cluster_count, names)


@settings(max_examples=150, deadline=None)
@given(dataset=datasets(), block=st.integers(1, 4))
@example(dataset=make_dataset([[42]], [(-1500, -7, 0, 42)], [1], 1), block=1)
@example(dataset=make_dataset([[-7]] * 9, [(-1500, -7, 0, 42)], [12] * 9, 12), block=4)
@example(dataset=make_dataset([[1, 200, 5]], [(0, 1), (-3, 10, 200), (5,)], [10], 12), block=2)
def test_writers_match_savetxt(dataset, block):
    """Row counts below, at and across a block of 1-4 rows; the examples
    pin a single row, a single column and mixed token widths."""
    with mock.patch.object(report, "_ROWS_PER_BLOCK", block), tempfile.TemporaryDirectory() as d:
        assert_writers_match_savetxt(dataset, Path(d))


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_default_block_size_boundaries(tmp_path, offset):
    rows = report._ROWS_PER_BLOCK + offset
    rng = np.random.default_rng(rows)
    levels = [(0, 1, 2), (-10, 5, 100)]
    values = np.column_stack([rng.choice(lv, rows) for lv in levels])
    dataset = make_dataset(values, levels, rng.integers(1, 13, rows), 12)
    assert_writers_match_savetxt(dataset, tmp_path)


class TestUndeclaredValues:
    def test_dataset_value_outside_levels_raises_and_leaves_no_file(self, tmp_path):
        path = tmp_path / "dataset.csv"
        path.write_text("a stale file from an earlier run\n")
        levels = [(0, 1, 2), (0, 1)]
        values = [[0, 1], [2, 0], [1, 1], [2, 3]]  # 3 is not a level of "b"
        dataset = make_dataset(values, levels, [1, 1, 2, 2], 2, names=["a", "b"])
        # Blocks of one row: the error comes after three rows were written.
        with mock.patch.object(report, "_ROWS_PER_BLOCK", 1):
            with pytest.raises(SpecError, match="column 'b' has values outside"):
                write_dataset_csv(path, dataset)
        assert not path.exists()

    def test_allocation_outside_clusters_raises_and_leaves_no_file(self, tmp_path):
        path = tmp_path / "allocation.txt"
        dataset = make_dataset([[0], [1], [0]], [(0, 1)], [1, 2, 3], 2)
        with pytest.raises(SpecError, match="allocation.txt"):
            write_allocation(path, dataset)
        assert not path.exists()
