"""sample_moments against a Python-integer oracle, bit for bit.

The oracle forms S = n Sum x_p x_q - Sum x_p Sum x_q in exact integer
arithmetic, converts it to float once, and then applies the same IEEE
operations: S / (n (n - 1)) for the covariance and S_pq / (sqrt S_pp
sqrt S_qq) for the correlation.  Equal ``repr`` strings mean equal bits,
NaN and signed zeros included, and are what the matrix CSVs hold.
"""

import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synthcat import association, report
from synthcat.association import association_matrix, sample_moments
from synthcat.generator import GeneratorSpec, generate
from synthcat.model import ClusterSpec, ProbabilityVector, ProfileMatrix, SpecError, VariableDomain
from synthcat.report import RunResult, write_artifacts, write_dataset_csv
from test_writers import assert_writers_match_savetxt

KINDS = ("nominal", "ordinal", "interval")


@st.composite
def tables(draw):
    """(values, variables): n 1-40 rows, P 1-6 columns, codes in [-1500, 1500].

    A column observes a subset of its 1-4 declared levels, so some columns
    are constant; kinds are mixed.
    """
    n = draw(st.integers(1, 40))
    p_count = draw(st.integers(1, 6))
    variables, columns = [], []
    for p in range(p_count):
        levels = tuple(sorted(draw(st.sets(st.integers(-1500, 1500), min_size=1, max_size=4))))
        observed = draw(st.lists(st.sampled_from(levels), min_size=1, max_size=len(levels)))
        columns.append(draw(st.lists(st.sampled_from(observed), min_size=n, max_size=n)))
        variables.append(VariableDomain(f"x{p}", levels, draw(st.sampled_from(KINDS))))
    return np.array(columns, dtype=np.int64).T, tuple(variables)


def oracle(values, variables):
    """(means, covariance, correlation) as nested lists of Python floats."""
    n = len(values)
    columns = [[int(x) for x in values[:, p]] for p in range(values.shape[1])]
    sums = [sum(column) for column in columns]
    scaled = [
        [n * sum(a * b for a, b in zip(cp, cq)) - sp * sq for cq, sq in zip(columns, sums)]
        for cp, sp in zip(columns, sums)
    ]
    sd = [
        math.sqrt(float(row[p])) if v.kind == "interval" and row[p] > 0 else math.nan
        for p, (row, v) in enumerate(zip(scaled, variables))
    ]
    cov = [[float(s) / (n * (n - 1)) if n > 1 else math.nan for s in row] for row in scaled]
    cor = [
        [1.0 if p == q else float(s) / (sd[p] * sd[q]) for q, s in enumerate(row)]
        for p, row in enumerate(scaled)
    ]
    return [s / n for s in sums], cov, cor


def reprs(array) -> list:
    return [repr(float(x)) for x in np.ravel(array)]


def assert_matches_oracle(values, variables):
    moments = sample_moments((values, variables))
    means, cov, cor = oracle(values, variables)
    assert reprs(moments.means) == reprs(means)
    assert reprs(moments.covariance) == reprs(cov)
    assert reprs(moments.variances) == reprs(np.diag(np.array(cov)))
    assert reprs(moments.correlation) == reprs(cor)


@settings(max_examples=300, deadline=None)
@given(tables())
def test_matches_integer_oracle_bit_for_bit(data):
    assert_matches_oracle(*data)


@settings(max_examples=100, deadline=None)
@given(tables(), st.integers(-(2**40), 2**40))
def test_large_codes_keep_bits(data, shift):
    """S is formed from codes less their column minimum, so it does not cancel."""
    values, variables = data
    shifted = tuple(VariableDomain(v.name, tuple(x + shift for x in v.levels), v.kind) for v in variables)
    assert_matches_oracle(values + shift, shifted)


def test_codes_near_1e8_over_two_blocks():
    """Sum x^2 of the raw codes is past 2**53 here; the shifted sums are not."""
    n = 2 * association._MOMENT_ROWS + 1
    rng = np.random.default_rng(8)
    a = rng.integers(0, 2, n)
    values = 10**8 + np.column_stack([a, a + rng.integers(0, 3, n), np.ones(n, dtype=np.int64)])
    variables = tuple(
        VariableDomain(name, tuple(range(10**8, 10**8 + 4))) for name in ("a", "b", "c")
    )
    assert_matches_oracle(values, variables)
    moments = sample_moments((values, variables))
    assert moments.covariance[2, 2] == 0.0
    assert math.isnan(moments.correlation[0, 2])
    assert 0.0 < moments.correlation[0, 1] < 1.0


def test_past_the_exact_bound_centres_on_the_means():
    """One low outlier puts Sum x'^2 past 2**53; S is taken about the means."""
    rng = np.random.default_rng(10)
    n = 2 * association._MOMENT_ROWS
    u = rng.integers(0, 1000, n)
    values = 2**40 + np.column_stack([u, u + rng.integers(0, 1000, n)])
    values[0] = 0
    variables = tuple(VariableDomain(name, tuple(sorted(set(values[:, p].tolist()))))
                      for p, name in enumerate("ab"))
    moments = sample_moments((values, variables))
    means, cov, cor = oracle(values, variables)
    np.testing.assert_allclose(moments.means, means, rtol=1e-15)
    np.testing.assert_allclose(moments.covariance, cov, rtol=1e-13, atol=0)
    np.testing.assert_allclose(moments.correlation, cor, rtol=1e-13, atol=0)


def test_int64_extremes_do_not_wrap():
    """Codes at both ends of int64 differ by 2**64 - 1 from the column minimum."""
    b = np.random.default_rng(11).integers(0, 2, 100)
    a = np.where(b == 1, 2**63 - 1, -(2**63))
    values = np.column_stack([a, b, np.full(100, 2**63 - 1)])
    variables = (
        VariableDomain("a", (-(2**63), 2**63 - 1)),
        VariableDomain("b", (0, 1)),
        VariableDomain("c", (2**63 - 1,)),
    )
    moments = sample_moments((values, variables))
    assert moments.correlation[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert moments.covariance[2, 2] == 0.0
    assert math.isnan(moments.correlation[0, 2])


def table_measures(data) -> list:
    """reprs of the v (both variants), vcc and tauc matrices, or the SpecError each raises."""
    out = []
    for measure, variant in (("v", "paper"), ("v", "standard"), ("vcc", "paper"), ("tauc", "paper")):
        try:
            out.append(reprs(association_matrix(data, measure, variant=variant).values))
        except SpecError as err:
            out.append(str(err))
    return out


@settings(max_examples=100, deadline=None)
@given(tables(), st.integers(1, 5))
def test_block_size_never_changes_bits(data, rows):
    """The moments and the pair tables of every measure, over blocks of 1-5 rows."""
    expected = sample_moments(data)
    expected_measures = table_measures(data)
    with mock.patch.object(association, "_MOMENT_ROWS", rows):
        actual = sample_moments(data)
        assert table_measures(data) == expected_measures
    for field in ("means", "variances", "covariance", "correlation"):
        assert reprs(getattr(actual, field)) == reprs(getattr(expected, field)), field


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_default_block_boundaries(offset):
    rows = association._MOMENT_ROWS + offset
    rng = np.random.default_rng(rows)
    values = np.column_stack([rng.choice([-1500, 0, 7], rows), rng.integers(0, 3, rows)])
    variables = (VariableDomain("a", (-1500, 0, 7)), VariableDomain("b", (0, 1, 2)))
    assert_matches_oracle(values, variables)


def test_single_subject_is_nan_without_warning():
    variables = (VariableDomain("a", (0, 1)), VariableDomain("b", (0, 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        moments = sample_moments((np.array([[0, 1]]), variables))
    assert np.isnan(moments.covariance).all()
    assert math.isnan(moments.correlation[0, 1])
    assert (np.diag(moments.correlation) == 1.0).all()


def test_pearson_matrix_is_the_sample_correlation():
    rng = np.random.default_rng(3)
    values = rng.integers(0, 3, (200, 4))
    variables = tuple(VariableDomain(f"x{p}", (0, 1, 2)) for p in range(4))
    matrix = association_matrix((values, variables), "pearson")
    assert matrix.names == ("x0", "x1", "x2", "x3")
    assert reprs(matrix.values) == reprs(sample_moments((values, variables)).correlation)


def test_no_float_copy_of_the_whole_table():
    values = np.random.default_rng(5).integers(0, 3, (40000, 30))
    variables = tuple(VariableDomain(f"x{p}", (0, 1, 2)) for p in range(30))
    tracemalloc.start()
    try:
        sample_moments((values, variables))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < values.nbytes / 4


@pytest.mark.parametrize("shuffle", [False, True])
def test_generate_and_write_hold_no_int64_table(tmp_path, shuffle):
    """Cells stay one-byte level positions from the draw to the CSV bytes."""
    variables = tuple(VariableDomain(f"x{p}", (0, 1, 2)) for p in range(30))
    rows = tuple((ProbabilityVector((0.2, 0.3, 0.5)),) * 30 for _ in range(2))
    spec = GeneratorSpec(ClusterSpec.uniform(2, 40000), ProfileMatrix(variables, rows), 3)
    tracemalloc.start()
    try:
        write_dataset_csv(tmp_path / "dataset.csv", generate(spec, shuffle=shuffle))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40000 * 30 * np.dtype(np.int64).itemsize / 2


def test_snp_data_look_nothing_up(tmp_path, monkeypatch):
    """snp groups, a [0, 1, 2] and a [0, 1] noise column take both arithmetic paths.

    Their levels are consecutive from 0, so the sample moments cast the
    positions (the binary column's padding included) and the dataset and
    allocation files are written as digits; ``_lookup_blocks`` raises here,
    where the Gram and where the writer call it, and the results still
    match their oracles.
    """

    def looked_up(*args):
        raise AssertionError("a lookup ran")

    monkeypatch.setattr(association, "_lookup_blocks", looked_up)
    monkeypatch.setattr(report, "_lookup_blocks", looked_up)
    config = {
        "seed": 6,
        "clusters": {"n": 400},
        "groups": {"k": 2, "sizes": [3, 2], "family": "snp", "pH": 0.95,
                   "targets": [{"correlation": 0.5}, {"correlation": 0.3}]},
        "noise": [
            {"name": "noise1", "levels": [0, 1, 2], "probs": [0.25, 0.5, 0.25]},
            {"name": "binary", "levels": [0, 1], "probs": [0.6, 0.4]},
        ],
    }
    dataset = RunResult(config, shuffle=True).dataset
    assert dataset.clusters.cluster_count <= 9
    assert_matches_oracle(dataset.values, dataset.profile.variables)
    assert_writers_match_savetxt(dataset, tmp_path)


def recorded_blocks(monkeypatch) -> list:
    """(dtype, rows) of the block buffer of each ``_gram`` call from now on, cast or looked up."""
    blocks = []
    for name in ("_cast_blocks", "_lookup_blocks"):
        make = getattr(association, name)

        def recorded(*args, make=make):
            blocks.append((args[-1].dtype, len(args[-1])))
            return make(*args)

        monkeypatch.setattr(association, name, recorded)
    return blocks


def test_an_unobserved_lowest_level_keeps_float32_blocks(monkeypatch):
    """Level 0 never occurs in one column, nor levels 0 and 1 in another.

    The shifted table's entries below those columns' lowest observed
    positions are never read.  Left to wrap to about 2**64, they would send
    the whole pass to float64 blocks; the pass must stay float32 and match
    the oracle bit for bit.
    """
    rng = np.random.default_rng(21)
    n = 3 * association._MOMENT_ROWS + 7
    values = rng.integers(0, 3, (n, 4))
    values[:, 1] = rng.integers(1, 3, n)
    values[:, 3] = 2
    variables = tuple(VariableDomain(f"x{p}", (0, 1, 2)) for p in range(4))
    blocks = recorded_blocks(monkeypatch)
    assert_matches_oracle(values, variables)
    assert [dtype for dtype, _ in blocks] == [np.float32]


def test_codes_0_to_255_keep_float32_blocks(monkeypatch):
    """1024 * 255**2 passes the float32 bound; the blocks are lowered to the
    258 rows that keep it (258 * 255**2 < 2**24), not made float64."""
    rng = np.random.default_rng(255)
    values = rng.integers(0, 256, (3 * association._MOMENT_ROWS + 7, 3))
    values[0] = 0
    variables = tuple(VariableDomain(f"x{p}", tuple(range(256))) for p in range(3))
    blocks = recorded_blocks(monkeypatch)
    assert_matches_oracle(values, variables)
    assert blocks == [(np.float32, 258)]


def test_a_run_makes_one_sample_pass(tmp_path, monkeypatch):
    """Pearson, covariance summaries and the comparison share one pass."""
    calls = []

    def counted(data):
        calls.append(1)
        return sample_moments(data)

    monkeypatch.setattr(report, "sample_moments", counted)
    config = {
        "seed": 4,
        "clusters": {"n": 500},
        "groups": {
            "k": 2,
            "sizes": [3, 2],
            "family": "snp",
            "pH": 0.95,
            "targets": [{"correlation": 0.5}, {"covariance": 0.3}],
        },
    }
    run = RunResult(config)
    write_artifacts(run, tmp_path, list(report.ARTIFACTS))
    assert [s.target_kind for s in run.summaries] == ["correlation", "covariance"]
    assert len(calls) == 1


def gram_oracle(positions, columns, table):
    """Column sums and X^T X in int64, X gathered as ``association._gram`` defines it."""
    x = np.column_stack([table[c, positions[:, p]] for c, p in enumerate(columns)])
    x = x.astype(np.int64)
    return x.sum(axis=0), x.T @ x


@pytest.mark.parametrize("rows, top", [(None, 255), (4096, 200)], ids=["float32", "float64"])
def test_gram_matches_int64_oracle_on_both_sides_of_the_float32_bound(rows, top, monkeypatch):
    """Codes 0..top in blocks ``rows`` tall or lower, the same codes rotated
    by one position, and the indicator table ``_pair_tables`` uses.

    The first case's blocks are lowered from 1024 to 258 rows and float32
    (258 * 255**2 < 2**24).  The second case's would need 419 rows, under a
    quarter of 4096, so they stay 4096 rows tall and are float64.
    Codes drawn from top/2..top put the second case's block sums past 2**24,
    where float32 would round them.  The codes are cast from the positions;
    the rotated codes and the indicator table are looked up.
    """
    rows = rows or association._MOMENT_ROWS
    rng = np.random.default_rng(top)
    positions = rng.integers(top // 2, top + 1, (2 * rows + 3, 4)).astype(np.uint8)
    positions[:, 0] = top
    codes = np.tile(np.arange(top + 1.0), (4, 1))
    # Not a ramp, so looked up; position k reads k - 1 (position 0 reads top).
    rotated = np.roll(codes, 1, axis=1)
    # One indicator column per level of picked columns 1 and 2 but the last,
    # then the all-ones and the zero column.
    owner = np.repeat([1, 2, 1, 1], [top, top, 1, 1])
    level = np.concatenate([np.arange(top), np.arange(top)])
    ramp = np.arange(top + 1)
    indicator = np.vstack([level[:, None] == ramp, np.ones(top + 1), np.zeros(top + 1)])
    blocks = recorded_blocks(monkeypatch)
    monkeypatch.setattr(association, "_MOMENT_ROWS", rows)
    for picked, columns, table in (
        (slice(None), range(4), codes),
        (slice(None), range(4), rotated),
        (owner, owner, indicator),
    ):
        sums, cross = association._gram(positions, picked, table)
        expected_sums, expected_cross = gram_oracle(positions, columns, table)
        assert sums.tobytes() == expected_sums.astype(float).tobytes()
        assert cross.tobytes() == expected_cross.astype(float).tobytes()
    code_blocks = (np.float32, 258) if top == 255 else (np.float64, 4096)
    assert blocks == [code_blocks, code_blocks, (np.float32, rows)]


@pytest.mark.parametrize("rows, width", [(None, 1024), (3, 1100)], ids=["default", "patched"])
def test_wide_gram_blocks_keep_every_bit(rows, width, monkeypatch):
    """A Gram 1024 or more columns wide, its blocks lowered to stay float32.

    Codes 100..200 pass the float32 bound at the default 1024 rows but not
    at 419 (419 * 200**2 < 2**24), so the default blocks are lowered to 419
    rows, whose sums stay below 2**24; the float64 product is exact here,
    so it is the oracle.  Patched to 3 rows, the blocks are 3 rows tall.
    """
    rows = rows or association._MOMENT_ROWS
    top = 200
    assert (rows * top**2 < 2**24) == (rows == 3)
    rng = np.random.default_rng(width)
    positions = rng.integers(top // 2, top + 1, (2 * 4 * rows + 5, width)).astype(np.uint8)
    table = np.tile(np.arange(top + 1.0), (width, 1))
    blocks = recorded_blocks(monkeypatch)
    monkeypatch.setattr(association, "_MOMENT_ROWS", rows)
    sums, cross = association._gram(positions, slice(None), table)
    x = positions.astype(float)
    assert sums.tobytes() == x.sum(axis=0).tobytes()
    assert cross.tobytes() == (x.T @ x).tobytes()
    assert blocks == [(np.float32, min(rows, 419))]


def test_gram_of_a_non_integral_table_is_float64():
    """Thirds are not exact in float32, so one block must equal the float64 product."""
    rng = np.random.default_rng(9)
    positions = rng.integers(0, 4, (association._MOMENT_ROWS, 3)).astype(np.uint8)
    table = np.tile(np.arange(4) / 3, (3, 1))
    x = np.column_stack([table[c, positions[:, c]] for c in range(3)])
    sums, cross = association._gram(positions, slice(None), table)
    assert cross.tobytes() == (x.T @ x).tobytes()
    assert sums.tobytes() == x.sum(axis=0).tobytes()


@st.composite
def gram_inputs(draw):
    """(positions, columns, table): uint8 positions of up to 6 columns, read by a
    P x M integral table through ``columns`` (every column or a permutation).

    Tables are ramps (every row k at k, so ``_gram`` casts the positions),
    ramps with one cell changed, mixed level counts with the padding at zero
    or at its own position, and columns whose lowest position never occurs.
    A changed cell up to 3000 puts some blocks past the float32 bound.
    """
    n = draw(st.integers(1, 40))
    p_count = draw(st.integers(1, 6))
    m = draw(st.integers(1, 6))
    shape = draw(st.sampled_from(["ramp", "changed", "mixed", "lowest unseen"]))
    table = np.tile(np.arange(m), (p_count, 1))
    sizes = [m] * p_count
    if shape == "changed":
        row, k = draw(st.integers(0, p_count - 1)), draw(st.integers(0, m - 1))
        table[row, k] += draw(st.integers(-3000, 3000).filter(bool))
    elif shape == "mixed":
        sizes = draw(st.lists(st.integers(1, m), min_size=p_count, max_size=p_count))
        if draw(st.booleans()):
            table[np.arange(m) >= np.array(sizes)[:, None]] = 0
    lowest = [
        1 if shape == "lowest unseen" and size > 1 and draw(st.booleans()) else 0 for size in sizes
    ]
    columns = slice(None) if draw(st.booleans()) else draw(st.permutations(range(p_count)))
    read = range(p_count) if isinstance(columns, slice) else columns
    positions = np.zeros((n, p_count), np.uint8)
    for c, p in enumerate(read):
        positions[:, p] = draw(
            st.lists(st.integers(lowest[c], sizes[c] - 1), min_size=n, max_size=n)
        )
    return positions, columns, table.astype(float)


@settings(max_examples=300, deadline=None)
@given(gram_inputs(), st.integers(1, 5))
def test_gram_matches_int64_oracle_on_any_table(data, rows):
    """Cast or looked up, float32 or float64, over blocks of 1-5 rows."""
    positions, columns, table = data
    with mock.patch.object(association, "_MOMENT_ROWS", rows):
        sums, cross = association._gram(positions, columns, table)
    read = range(len(table)) if isinstance(columns, slice) else columns
    expected_sums, expected_cross = gram_oracle(positions, read, table)
    assert sums.tobytes() == expected_sums.astype(float).tobytes()
    assert cross.tobytes() == expected_cross.astype(float).tobytes()
