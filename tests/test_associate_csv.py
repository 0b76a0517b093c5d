"""``synthcat associate --data`` against a reference reading of the same file.

The reference reads the codes with ``np.loadtxt``, takes each column's
levels from ``np.unique``, looks every code up one column at a time
(``association_oracles.pair_positions``) and hands the positions to
``association_matrix``.  The CLI reads the file once, as bytes, straight
into level positions: a file of one-digit fields, ``d,d,...,d\\n`` on every
line, is read from its bytes, and any other file through ``np.loadtxt``
and ``association._level_positions``, the map that also looks up a
``(codes, variables)`` pair.  Both must give the reference's levels and
positions, every measure must write the same bytes, and where the
reference raises SpecError the CLI must exit 2.  ``_level_positions`` is
also held to the oracle over declared levels, and on an undeclared code
must raise the oracle's SpecError.
"""

import contextlib
import io
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from association_oracles import pair_positions
from synthcat import association
from synthcat.association import MEASURES, LevelPositions, _level_positions, association_matrix
from synthcat.cli import main
from synthcat.model import SpecError, VariableDomain
from synthcat.report import read_dataset_csv as _read_csv, write_association

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


def observed_domains(codes: np.ndarray, names) -> tuple[VariableDomain, ...]:
    """Interval domains whose levels are each column's distinct codes, by ``np.unique``."""
    return tuple(
        VariableDomain(name, tuple(int(x) for x in np.unique(codes[:, p])), "interval")
        for p, name in enumerate(names)
    )


def reference_outputs(path: Path, out: Path) -> dict[str, bytes | None]:
    """Each measure's written bytes by the reference reading, or None where it raises SpecError."""
    with open(path, encoding="utf-8-sig") as f:
        names = f.readline().strip().split(",")
    codes = np.loadtxt(path, dtype=np.int64, delimiter=",", skiprows=1, ndmin=2, comments=None)
    variables = observed_domains(codes, names)
    data = LevelPositions(pair_positions(codes, variables), variables)
    written = {}
    for measure in MEASURES:
        try:
            write_association(out, association_matrix(data, measure))
        except SpecError:
            written[measure] = None
            continue
        written[measure] = b"".join(
            (out / f"{measure}_{kind}.csv").read_bytes() for kind in ("matrix", "long")
        )
    return written


def cli_outputs(path: Path, out: Path) -> dict[str, bytes | None]:
    """Each measure's bytes written by ``synthcat associate --data``, or None where it exits 2."""
    written = {}
    for measure in MEASURES:
        argv = ["associate", "--data", str(path), "--measure", measure, "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 2), measure
        written[measure] = None if code else b"".join(
            (out / f"{measure}_{kind}.csv").read_bytes() for kind in ("matrix", "long")
        )
    return written


def assert_cli_writes_the_reference_bytes(text: str) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        expected = reference_outputs(path, Path(tmp) / "reference")
        assert cli_outputs(path, Path(tmp) / "cli") == expected


@settings(max_examples=60, deadline=None)
@given(integer_csvs())
def test_associate_data_writes_the_reference_bytes(csv):
    assert_cli_writes_the_reference_bytes(csv[0])


# How a one-digit file is changed, if at all; each change but the byte-order
# mark sends the reader to np.loadtxt.
PERTURBATIONS = (
    "byte-order-mark", "crlf", "cr-after-header", "blank-line", "no-final-newline",
    "two-digit", "negative",
)


@st.composite
def one_digit_csvs(draw):
    """Mostly clean ``d,...,d\\n`` files, else one of PERTURBATIONS of one.

    Each column's digits are a random subset of 0..9, so some columns miss a
    level between two they hold (codes 0 and 2, say).
    """
    p_count = draw(st.integers(1, 6))
    n = draw(st.integers(1, 30))
    digits = [sorted(draw(st.sets(st.integers(0, 9), min_size=1))) for _ in range(p_count)]
    rows = [[str(draw(st.sampled_from(d))) for d in digits] for _ in range(n)]
    perturbation = draw(st.sampled_from((None,) * len(PERTURBATIONS) + PERTURBATIONS))
    if perturbation in ("two-digit", "negative"):
        row, p = draw(st.integers(0, n - 1)), draw(st.integers(0, p_count - 1))
        code = st.integers(10, 99) if perturbation == "two-digit" else st.integers(-9, -1)
        rows[row][p] = str(draw(code))
    lines = [",".join(f"c{p}" for p in range(p_count))] + [",".join(row) for row in rows]
    if perturbation == "blank-line":
        lines.insert(draw(st.integers(1, len(lines))), "")
    newline = "\r\n" if perturbation == "crlf" else "\n"
    text = newline.join(lines) + ("" if perturbation == "no-final-newline" else newline)
    if perturbation == "cr-after-header":
        text = text.replace("\n", "\r", 1)
    return ("\ufeff" if perturbation == "byte-order-mark" else "") + text


@settings(max_examples=100, deadline=None)
@given(one_digit_csvs())
def test_one_digit_files_read_as_the_loaded_codes(text):
    """The byte path and its fallback both give the oracle's levels and positions of the codes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        read = _read_csv(str(path))
        codes = np.loadtxt(path, dtype=np.int64, delimiter=",", skiprows=1, ndmin=2, comments=None)
    variables = observed_domains(codes, [v.name for v in read.variables])
    positions = pair_positions(codes, variables)
    assert read.positions.dtype == positions.dtype
    assert read.positions.flags.c_contiguous
    assert np.array_equal(read.positions, positions)
    assert [v.levels for v in read.variables] == [v.levels for v in variables]
    assert [v.name for v in read.variables] == text.lstrip("\ufeff").splitlines()[0].split(",")
    assert {v.kind for v in read.variables} == {"interval"}
    assert_cli_writes_the_reference_bytes(text)


def test_a_one_digit_file_is_read_without_loadtxt(tmp_path, monkeypatch):
    """A clean one-digit file never reaches np.loadtxt; the same file with CRLF lines does."""

    def loadtxt(*args, **kwargs):
        raise AssertionError("np.loadtxt ran")

    text = "a,b,c\n0,2,9\n2,2,7\n0,1,9\n"
    clean = tmp_path / "clean.csv"
    clean.write_text(text)
    expected = reference_outputs(clean, tmp_path / "reference")
    monkeypatch.setattr(np, "loadtxt", loadtxt)
    read = _read_csv(str(clean))
    assert [v.levels for v in read.variables] == [(0, 2), (1, 2), (7, 9)]
    assert read.positions.tolist() == [[0, 1, 1], [1, 1, 0], [0, 0, 1]]
    assert cli_outputs(clean, tmp_path / "cli") == expected
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(text.replace("\n", "\r\n").encode())
    with pytest.raises(AssertionError, match="np.loadtxt ran"):
        _read_csv(str(crlf))


def test_a_carriage_return_ends_the_header(tmp_path):
    """As in a text-mode read: the field after it is data, not part of a name."""
    path = tmp_path / "data.csv"
    path.write_bytes(b"a\r0\n1\n")
    read = _read_csv(str(path))
    assert read.variables == (VariableDomain("a", (0, 1), "interval"),)
    assert read.positions.tolist() == [[0], [1]]


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
        (np.zeros((5, 0), np.uint8), ()),
    ],
    ids=["past-the-levels", "signed", "one-dimensional", "too-few-columns", "no-columns"],
)
def test_level_positions_refuse_what_cannot_index_the_levels(positions, sizes):
    variables = tuple(VariableDomain(f"x{p}", tuple(range(size))) for p, size in enumerate(sizes))
    with pytest.raises(SpecError):
        LevelPositions(positions, variables)


@st.composite
def declared_pairs(draw):
    """(codes, variables): each column drawn from some of its declared levels.

    Declared levels come from ``column_codes``, so some are int64 extremes
    and most are never drawn, leaving gaps.  Rows run from 1, where every
    column spans 0 < n integers, to past the widest dense span.  Sometimes
    one or more cells are set to a code outside their column's levels.
    """
    declared = draw(st.lists(column_codes.map(sorted), min_size=1, max_size=4))
    n = draw(st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for levels in declared:
        drawn = draw(st.lists(st.sampled_from(levels), min_size=1, max_size=5, unique=True))
        columns.append(rng.choice(np.array(drawn, np.int64), n))
    codes = np.column_stack(columns)
    for _ in range(draw(st.integers(0, 2))):
        row, p = draw(st.integers(0, n - 1)), draw(st.integers(0, len(declared) - 1))
        codes[row, p] = draw(st.integers(*INT64).filter(lambda code: code not in declared[p]))
    variables = tuple(
        VariableDomain(f"x{p}", tuple(levels), "interval") for p, levels in enumerate(declared)
    )
    return codes, variables


@settings(max_examples=300, deadline=None)
@given(declared_pairs(), st.sampled_from([1, 5, 64, association._BLOCK_ROWS]))
def test_level_positions_match_the_oracle(pair, rows):
    """Declared or observed levels, one block or many: the oracle's positions, dtype and levels.

    On a code outside its declared levels both raise the same SpecError.
    """
    codes, variables = pair
    with mock.patch.object(association, "_BLOCK_ROWS", rows):
        try:
            expected = pair_positions(codes, variables)
        except SpecError as err:
            with pytest.raises(SpecError) as raised:
                _level_positions(codes, variables)
            assert str(raised.value) == str(err)
        else:
            levels, positions = _level_positions(codes, variables)
            assert positions.dtype == expected.dtype
            assert np.array_equal(positions, expected)
            assert levels == [list(v.levels) for v in variables]
        observed = observed_domains(codes, [v.name for v in variables])
        levels, positions = _level_positions(codes)
        expected = pair_positions(codes, observed)
        assert positions.dtype == expected.dtype
        assert np.array_equal(positions, expected)
        assert levels == [list(v.levels) for v in observed]
