"""``synthcat associate --data`` against a reference reading of the same file.

The reference reads the codes with ``np.loadtxt``, takes each column's
levels from ``np.unique`` and hands the ``(codes, variables)`` pair to
``association_matrix``, which looks every code up.  The CLI reads the file
straight into level positions; every measure must write the same bytes, and
where the reference raises SpecError the CLI must exit 2.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synthcat.association import MEASURES, LevelPositions, association_matrix
from synthcat.cli import _level_positions, main
from synthcat.model import SpecError, VariableDomain
from synthcat.report import write_association

INT64 = (-(2**63), 2**63 - 1)

# The distinct codes of one column.
column_codes = st.one_of(
    # Spans shorter than the table: the reader's presence-mask path.
    st.lists(st.integers(-40, 40), min_size=1, max_size=81, unique=True),
    # Up to 300 consecutive codes, so positions need uint16.
    st.builds(lambda base, k: list(range(base, base + k)), st.integers(-1000, 1000), st.integers(1, 300)),
    # Sparse codes out to the int64 extremes: the reader's np.unique path.
    st.lists(st.integers(*INT64), min_size=1, max_size=300, unique=True),
    st.lists(st.sampled_from([INT64[0], -1, 0, INT64[1]]), min_size=1, max_size=4, unique=True),
)


@st.composite
def integer_csvs(draw):
    """(text, codes): a headered integer CSV with CRLF or LF lines and stray blank lines."""
    columns = draw(st.lists(column_codes, min_size=1, max_size=4))
    n = max(map(len, columns)) + draw(st.integers(0, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Every code occurs at least once; constant columns come from one-code lists.
    codes = np.column_stack([rng.permutation(np.resize(np.array(c, np.int64), n)) for c in columns])
    lines = [",".join(f"c{p}" for p in range(len(columns)))]
    lines += [",".join(map(str, row)) for row in codes.tolist()]
    for at in sorted(draw(st.lists(st.integers(1, len(lines)), max_size=3)), reverse=True):
        lines.insert(at, "")
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    return text, codes


def reference_outputs(path: Path, out: Path) -> dict[str, bytes | None]:
    """Each measure's written bytes by the reference reading, or None where it raises SpecError."""
    with open(path, encoding="utf-8") as f:
        names = f.readline().strip().split(",")
    codes = np.loadtxt(path, dtype=np.int64, delimiter=",", skiprows=1, ndmin=2, comments=None)
    variables = tuple(
        VariableDomain(name, tuple(int(x) for x in np.unique(codes[:, p])), "interval")
        for p, name in enumerate(names)
    )
    written = {}
    for measure in MEASURES:
        try:
            write_association(out, association_matrix((codes, variables), measure))
        except SpecError:
            written[measure] = None
            continue
        written[measure] = b"".join(
            (out / f"{measure}_{kind}.csv").read_bytes() for kind in ("matrix", "long")
        )
    return written


def assert_cli_writes_the_reference_bytes(text: str) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        expected = reference_outputs(path, Path(tmp) / "reference")
        out = Path(tmp) / "cli"
        for measure in MEASURES:
            argv = ["associate", "--data", str(path), "--measure", measure, "--out", str(out)]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            if expected[measure] is None:
                assert code == 2, measure
                continue
            assert code == 0, measure
            actual = b"".join((out / f"{measure}_{kind}.csv").read_bytes() for kind in ("matrix", "long"))
            assert actual == expected[measure], measure


@settings(max_examples=60, deadline=None)
@given(integer_csvs())
def test_associate_data_writes_the_reference_bytes(csv):
    assert_cli_writes_the_reference_bytes(csv[0])


@pytest.mark.parametrize("sparse", [False, True], ids=["mask", "unique"])
def test_mixed_level_counts_write_the_reference_bytes(sparse):
    """Columns of 2, 3, 5, 17 and 300 levels; a sparse column sends every column through np.unique."""
    rng = np.random.default_rng(17)
    columns = [rng.choice(np.arange(size) * 3 - size, 900) for size in (2, 3, 5, 17, 300)]
    if sparse:
        columns.append(rng.choice(INT64, 900))
    lines = [",".join(f"x{p}" for p in range(len(columns)))]
    lines += [",".join(map(str, row)) for row in np.column_stack(columns).tolist()]
    assert_cli_writes_the_reference_bytes("\n".join(lines) + "\n")


@settings(max_examples=60, deadline=None)
@given(integer_csvs())
def test_level_positions_index_the_unique_levels(csv):
    """Either path gives np.unique's levels, and positions that index them back to the codes."""
    _, codes = csv
    levels, positions = _level_positions(codes)
    assert levels == [np.unique(column).tolist() for column in codes.T]
    widest = max(map(len, levels))
    assert positions.dtype == np.min_scalar_type(widest - 1)
    for p, column in enumerate(codes.T):
        assert (np.asarray(levels[p])[positions[:, p]] == column).all()


@pytest.mark.parametrize(
    "positions, sizes",
    [
        (np.array([[0, 2]], np.uint8), (2, 2)),
        (np.array([[0, 1]], np.int64), (2, 2)),
        (np.array([0, 1], np.uint8), (2, 2)),
        (np.array([[0]], np.uint8), (2, 2)),
    ],
    ids=["past-the-levels", "signed", "one-dimensional", "too-few-columns"],
)
def test_level_positions_refuse_what_cannot_index_the_levels(positions, sizes):
    variables = tuple(VariableDomain(f"x{p}", tuple(range(size))) for p, size in enumerate(sizes))
    with pytest.raises(SpecError):
        LevelPositions(positions, variables)
