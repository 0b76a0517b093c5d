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
from synthcat.association import pearson_matrix, sample_moments
from synthcat.model import VariableDomain
from synthcat.report import build_run, write_artifacts

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


@settings(max_examples=100, deadline=None)
@given(tables(), st.integers(1, 5))
def test_block_size_never_changes_bits(data, rows):
    expected = sample_moments(data)
    with mock.patch.object(association, "_MOMENT_ROWS", rows):
        actual = sample_moments(data)
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
    matrix = pearson_matrix((values, variables))
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
    run = build_run(config)
    write_artifacts(run, tmp_path, list(report.ARTIFACTS))
    assert [s.target_kind for s in run.summaries] == ["correlation", "covariance"]
    assert len(calls) == 1
