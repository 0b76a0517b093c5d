"""The dataset and allocation writers against ``np.savetxt`` as oracle."""

import errno
import io
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from synthcat import report
from synthcat.association import AssociationMatrix, association_matrix
from synthcat.generator import GeneratorSpec, generate
from synthcat.model import (
    ClusterSpec,
    Dataset,
    ProbabilityVector,
    ProfileMatrix,
    SpecError,
    VariableDomain,
)
from synthcat.report import write_allocation, write_dataset_csv


def make_dataset(values, levels, assignments, cluster_count, names=None):
    """A hand-built Dataset: only what the writers read is meaningful.

    Each code becomes its position among its column's levels; a code that
    is not a level becomes position ``size``, one past the last.
    """
    values = np.asarray(values, dtype=np.int64).reshape(len(assignments), len(levels))
    levels = [list(lv) for lv in levels]
    positions = np.array(
        [[lv.index(x) if x in lv else len(lv) for x, lv in zip(row, levels)]
         for row in values.tolist()],
        dtype=np.uint8,
    ).reshape(values.shape)
    names = names or [f"v{p}" for p in range(len(levels))]
    variables = tuple(VariableDomain(n, tuple(lv)) for n, lv in zip(names, levels))
    clusters = ClusterSpec((1.0 / cluster_count,) * cluster_count, (0,) * cluster_count)
    return Dataset(
        positions=positions,
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


def digit_levels():
    """Consecutive levels inside 0..9: the codes the writer writes as single digits."""
    return st.tuples(st.integers(0, 9), st.integers(0, 9)).map(
        lambda ends: list(range(min(ends), max(ends) + 1))
    )


@st.composite
def datasets(draw):
    """0-13 rows of 1-7 columns, each of 1-4 levels in [-1500, 1500] or consecutive
    levels inside 0..9, and C in 1..15.  Half the files hold digit columns only."""
    columns = draw(st.integers(1, 7))
    any_levels = st.sets(st.integers(-1500, 1500), min_size=1, max_size=4).map(sorted)
    digits_only = draw(st.booleans())
    levels = [
        draw(digit_levels() if digits_only else st.one_of(any_levels, digit_levels()))
        for _ in range(columns)
    ]
    names = [
        draw(st.text("abcxyz_0123456789", min_size=1, max_size=4)) for _ in range(columns)
    ]
    rows = draw(st.integers(0, 13))
    values = [
        [draw(st.sampled_from(levels[p])) for p in range(columns)] for _ in range(rows)
    ]
    cluster_count = draw(st.integers(1, 15))
    assignments = draw(st.lists(st.integers(1, cluster_count), min_size=rows, max_size=rows))
    return make_dataset(values, levels, assignments, cluster_count, names)


@settings(max_examples=150, deadline=None)
@given(dataset=datasets(), block=st.integers(1, 4))
@example(dataset=make_dataset([], [(0, 1, 2), (0, 1)], [], 3), block=1)
@example(dataset=make_dataset([], [(-1500, 42), (0, 1)], [], 12), block=4)
@example(dataset=make_dataset([[42]], [(-1500, -7, 0, 42)], [1], 1), block=1)
@example(dataset=make_dataset([[-7]] * 9, [(-1500, -7, 0, 42)], [12] * 9, 12), block=4)
@example(dataset=make_dataset([[1, 200, 5]], [(0, 1), (-3, 10, 200), (5,)], [10], 12), block=2)
@example(
    dataset=make_dataset(
        [[0, 7, 0], [2, 9, 9], [1, 8, 5]], [(0, 1, 2), (7, 8, 9), tuple(range(10))], [9, 1, 5], 9
    ),
    block=2,
)
@example(dataset=make_dataset([[2, 10], [0, 11], [1, 10]], [(0, 1, 2), (10, 11)], [10, 1, 9], 10), block=2)
def test_writers_match_savetxt(dataset, block):
    """Row counts below, at and across a block of 1-4 rows; the examples
    pin zero rows (a header-only dataset.csv and an empty allocation.txt)
    in a digit and a token file, a single row, a single column and mixed
    token widths, then the digit levels 0..2, 7..9 and 0..9 with C = 9
    (every file written as digits), and a digit column next to a two-digit
    one with C = 10 (looked up)."""
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


def test_more_than_256_levels_are_held_as_uint16(tmp_path):
    """A 300-level column widens the positions; codes, bytes and tables are unchanged."""
    wide = tuple(range(-600, 600, 4))
    snp = (VariableDomain("snp1", (0, 1, 2)), VariableDomain("snp2", (0, 1, 2)))
    variables = (VariableDomain("wide", wide), *snp)
    rising = np.arange(1, 301) / np.arange(1, 301).sum()
    rows = (
        (ProbabilityVector(tuple(rising)), *(ProbabilityVector((0.7, 0.2, 0.1)),) * 2),
        (ProbabilityVector(tuple(rising[::-1])), *(ProbabilityVector((0.1, 0.2, 0.7)),) * 2),
    )
    spec = GeneratorSpec(ClusterSpec.uniform(2, 3000), ProfileMatrix(variables, rows), 11)
    dataset = generate(spec, shuffle=True)
    assert dataset.positions.dtype == np.uint16
    assert set(np.unique(dataset.values[:, 0])) <= set(wide)
    assert len(np.unique(dataset.values[:, 0])) > 256
    assert_writers_match_savetxt(dataset, tmp_path)
    direct = association_matrix(dataset, "v").values
    from_codes = association_matrix((dataset.values, variables), "v").values
    assert np.array_equal(direct, from_codes)


class TestUndeclaredValues:
    def test_dataset_value_outside_levels_is_refused_at_construction(self):
        levels = [(0, 1, 2), (0, 1)]
        values = [[0, 1], [2, 0], [1, 1], [2, 3]]  # 3 is not a level of "b"
        with pytest.raises(SpecError, match="column 'b' has values outside"):
            make_dataset(values, levels, [1, 1, 2, 2], 2, names=["a", "b"])

    def test_allocation_outside_clusters_is_refused_at_construction(self):
        for cluster in (3, 0):
            with pytest.raises(SpecError, match="assignments outside the clusters 1..2"):
                make_dataset([[0], [1], [0]], [(0, 1)], [1, 2, cluster], 2)


class _FullDisk(io.FileIO):
    """A file that takes two writes, then fails as a full disk does."""

    writes = 0

    def write(self, data):
        self.writes += 1
        if self.writes > 2:
            raise OSError(errno.ENOSPC, "No space left on device")
        return super().write(data)


@pytest.mark.parametrize(
    "writer, top",
    [(write_dataset_csv, 2), (write_allocation, 2), (write_dataset_csv, 10), (write_allocation, 10)],
    ids=["dataset", "allocation", "dataset-tokens", "allocation-tokens"],
)
def test_failed_write_leaves_no_file(tmp_path, writer, top):
    """A write that fails partway removes its partial file, and the stale one it replaced.

    With ``top`` 2 every code is one digit and written as such; with 10 the
    second column and the clusters reach 10, so codes are looked up as tokens.
    """
    path = tmp_path / "out"
    path.write_text("a stale file from an earlier run\n")
    rows = [[0, 1], [2, 0], [1, 1], [2, top]]
    dataset = make_dataset(rows, [(0, 1, 2), (0, 1, top)], [1, 1, top, top], top)
    # Blocks of one row: the error comes after one or two rows were written.
    with mock.patch.object(report, "_ROWS_PER_BLOCK", 1), mock.patch.object(
        Path, "open", lambda self, mode: _FullDisk(self, mode)
    ):
        with pytest.raises(OSError, match="No space left"):
            writer(path, dataset)
    assert not path.exists()


def test_matrix_csv_is_each_cells_repr(tmp_path):
    """Repeated values, both zeros, NaNs of several bit patterns and both infinities."""
    payload_nan = np.array([0x7FF8000000000001], dtype=np.uint64).view(float)[0]
    pool = [0.0, -0.0, np.nan, -np.nan, payload_nan, np.inf, -np.inf, 0.1, 2 / 3, 1e-300, 5e-324]
    values = np.random.default_rng(6).choice(np.array(pool), (7, 7))
    values[0, :len(pool) - 4] = pool[:-4]
    names = tuple(f"x{p}" for p in range(7))
    report.write_matrix_csv(tmp_path / "m.csv", values, names)
    expected = ["," + ",".join(names)] + [
        name + "," + ",".join(repr(float(x)) for x in row) for name, row in zip(names, values)
    ]
    assert (tmp_path / "m.csv").read_bytes() == ("\n".join(expected) + "\n").encode()
    assert expected[1] == "x0,0.0,-0.0,nan,nan,nan,inf,-inf"


def association_matrices():
    """v, vcc and tauc matrices of repeated values, both zeros, NaN and both infinities."""
    values = np.array([
        [1.0, -0.0, np.nan, 0.5],
        [0.0, 1.0, np.inf, 0.5],
        [np.nan, -np.inf, 1.0, 0.1 + 0.2],
        [0.5, -0.0, 0.0, 1.0],
    ])
    names = ("a", "grün", "β", "x_3")
    return [AssociationMatrix(values, names, measure) for measure in ("v", "vcc", "tauc")]


def test_write_association_writes_the_bytes_of_both_writers_alone(tmp_path):
    for matrix in association_matrices():
        report.write_association(tmp_path / "both", matrix)
        report.write_matrix_csv(tmp_path / "matrix.csv", matrix.values, matrix.names)
        report.write_long_format(tmp_path / "long.csv", matrix)
        square = (tmp_path / "both" / f"{matrix.measure}_matrix.csv").read_bytes()
        long = (tmp_path / "both" / f"{matrix.measure}_long.csv").read_bytes()
        assert square == (tmp_path / "matrix.csv").read_bytes()
        assert long == (tmp_path / "long.csv").read_bytes()
    assert square.decode().splitlines()[2] == "grün,0.0,1.0,inf,0.5"
    assert long.decode().splitlines()[1:3] == ["a,a,1.0", "a,grün,-0.0"]
    assert long.decode().splitlines()[-5] == "β,x_3,0.30000000000000004"


def test_write_association_makes_each_matrix_texts_once(tmp_path, monkeypatch):
    calls = []
    texts = report._matrix_files

    def counted(values, names):
        calls.append(names)
        return texts(values, names)

    monkeypatch.setattr(report, "_matrix_files", counted)
    for matrix in association_matrices():
        report.write_association(tmp_path, matrix)
    assert len(calls) == 3


def test_twelve_clusters_look_the_allocation_up(tmp_path, monkeypatch):
    """Digit columns with C = 12: dataset.csv is cast, and allocation.txt,
    whose codes reach 12, is the one file looked up."""
    lookups = []
    lookup = report._lookup_blocks

    def counted(positions, columns, table, block):
        lookups.append(table.shape)
        return lookup(positions, columns, table, block)

    monkeypatch.setattr(report, "_lookup_blocks", counted)
    rng = np.random.default_rng(12)
    levels = [(0, 1, 2), (0, 1)]
    values = np.column_stack([rng.choice(lv, 50) for lv in levels])
    dataset = make_dataset(values, levels, rng.integers(1, 13, 50), 12)
    assert_writers_match_savetxt(dataset, tmp_path)
    assert lookups == [(1, 12)]


def test_equal_width_tokens_match_savetxt(tmp_path):
    """Every token of a file one width, so none is padded; rows span three blocks."""
    levels = [(-9, -1), (10, 42, 99), (-3, -2)]
    rows = 2 * report._ROWS_PER_BLOCK + 5
    rng = np.random.default_rng(rows)
    values = np.column_stack([rng.choice(lv, rows) for lv in levels])
    dataset = make_dataset(values, levels, rng.integers(1, 10, rows), 9)
    assert_writers_match_savetxt(dataset, tmp_path)
