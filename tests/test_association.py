"""Association measures: hand values, oracles, kind gating, direction."""

import math

import numpy as np
import pytest
from scipy import stats

import association_oracles as oracle
from synthcat.association import (
    AssociationMatrix,
    association_matrix,
    chi_square,
    concentration_coefficient,
    cramers_v,
    crosstab,
    stuart_kendall_tau_c,
    tau_c_pair_scan,
)
from synthcat.generator import GeneratorSpec, generate
from synthcat.model import (
    ClusterSpec,
    ProbabilityVector,
    ProfileMatrix,
    SpecError,
    VariableDomain,
)
from synthcat.report import write_association


def table(rows):
    return np.asarray(rows, dtype=np.int64)


class TestCrosstab:
    def test_counts_over_declared_levels(self):
        t = crosstab([0, 0, 1, 2], [1, 1, 0, 1], (0, 1, 2), (0, 1))
        assert t.tolist() == [[0, 2], [1, 0], [0, 1]]
        assert t.dtype == np.int64
        assert t.sum() == 4

    def test_unobserved_levels_keep_zero_margins(self):
        t = crosstab([0, 0], [1, 1], (0, 1, 2), (0, 1))
        assert t.shape == (3, 2)
        assert t.sum(axis=1).tolist() == [2, 0, 0]

    def test_length_mismatch(self):
        with pytest.raises(SpecError, match="length"):
            crosstab([0, 1], [0], (0, 1), (0, 1))

    def test_undeclared_value(self):
        with pytest.raises(SpecError, match="declared"):
            crosstab([0, 5], [0, 1], (0, 1), (0, 1))

    def test_integral_float_codes_are_looked_up(self):
        """1.0 is level 1; 0.5 is no declared level."""
        t = crosstab([0.0, 1.0, 1.0], [1.0, 1.0, 0.0], (0, 1), (0, 1))
        assert t.tolist() == [[0, 1], [1, 1]]
        variables = (VariableDomain("a", (0, 1)), VariableDomain("b", (0, 1)))
        floats = np.array([[0.0, 1.0], [1.0, 1.0], [1.0, 0.0], [0.0, 0.0]])
        halves = floats.copy()
        halves[3, 0] = 0.5
        for measure in ("v", "vcc", "tauc", "pearson"):
            expected = association_matrix((floats.astype(int), variables), measure).values
            got = association_matrix((floats, variables), measure).values
            assert np.array_equal(got, expected, equal_nan=True)
            with pytest.raises(SpecError, match="column 'a' has values outside"):
                association_matrix((halves, variables), measure)
        with pytest.raises(SpecError, match="declared"):
            crosstab([0.0, 0.5, 1.0], [0, 1, 1], (0, 1), (0, 1))

    def test_no_subjects_give_an_all_zero_table(self):
        """An empty crosstab is all zeros, and every measure refuses zero subjects."""
        t = crosstab([], [], (0, 1), (0, 1))
        assert t.tolist() == [[0, 0], [0, 0]]
        for measure in (chi_square, cramers_v, concentration_coefficient, stuart_kendall_tau_c):
            with pytest.raises(SpecError):
                measure(t)
        variables = (VariableDomain("a", (0, 1)), VariableDomain("b", (0, 1)))
        for measure in ("v", "vcc", "tauc", "pearson"):
            with pytest.raises(SpecError):
                association_matrix((np.empty((0, 2)), variables), measure)


class TestTables:
    """Every per-pair measure takes one 2-D table, of counts or of weights."""

    @pytest.mark.parametrize(
        "measure", [chi_square, cramers_v, concentration_coefficient, stuart_kendall_tau_c]
    )
    @pytest.mark.parametrize("shape", [(4,), (2, 2, 2), ()])
    def test_a_table_that_is_not_2d_is_refused(self, measure, shape):
        with pytest.raises(SpecError, match="2-D"):
            measure(np.ones(shape))

    def test_fractional_table_takes_its_total_as_n(self):
        """The total 0.9999999999999999 is n itself, not truncated to 0."""
        weights = [[0.7, 0.1], [0.1, 0.1]]
        counts = table([[7, 1], [1, 1]])
        assert cramers_v(weights) == pytest.approx(cramers_v(counts), rel=1e-12)
        standard = cramers_v(counts, "standard")
        assert cramers_v(weights, "standard") == pytest.approx(standard, rel=1e-12)
        assert concentration_coefficient(weights) == pytest.approx(
            concentration_coefficient(counts), rel=1e-12
        )
        assert chi_square(weights) == pytest.approx(chi_square(counts) / 10, rel=1e-12)

    def test_lists_and_arrays_agree(self):
        rows = [[3, 1, 0], [1, 3, 2]]
        for measure in (chi_square, cramers_v, concentration_coefficient, stuart_kendall_tau_c):
            assert measure(rows) == measure(table(rows))


class TestChiSquare:
    def test_hand_values(self):
        assert chi_square(table([[10, 10], [10, 10]])) == 0.0
        assert chi_square(table([[2, 0], [0, 2]])) == 4.0
        assert chi_square(table([[3, 1], [1, 3]])) == 2.0

    def test_zero_margins_are_dropped(self):
        base = table([[3, 1], [1, 3]])
        padded = table([[3, 0, 1], [0, 0, 0], [1, 0, 3]])
        assert chi_square(padded) == chi_square(base)

    def test_all_zero_table_is_rejected(self):
        with pytest.raises(SpecError, match="all-zero"):
            chi_square(table([[0, 0], [0, 0]]))

    def test_matches_reference_statistic(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            counts = rng.integers(1, 40, size=(rng.integers(2, 5), rng.integers(2, 5)))
            expected = stats.chi2_contingency(counts, correction=False).statistic
            assert chi_square(table(counts)) == pytest.approx(expected, rel=1e-12)


class TestCramersV:
    def test_perfect_two_by_two(self):
        assert cramers_v(table([[5, 0], [0, 5]]), "paper") == 0.5
        assert cramers_v(table([[5, 0], [0, 5]]), "standard") == 1.0

    def test_independence_is_zero(self):
        assert cramers_v(table([[10, 10], [10, 10]]), "paper") == 0.0
        assert cramers_v(table([[10, 10], [10, 10]]), "standard") == 0.0

    def test_single_live_column(self):
        t = table([[7, 0], [3, 0]])
        assert cramers_v(t, "paper") == 0.0
        assert math.isnan(cramers_v(t, "standard"))

    def test_unknown_variant(self):
        with pytest.raises(SpecError, match="variant"):
            cramers_v(table([[1, 1], [1, 1]]), "corrected")

    def test_ranges(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            counts = rng.integers(0, 30, size=(rng.integers(2, 5), rng.integers(2, 5)))
            if counts.sum() == 0:
                continue
            t = table(counts)
            smaller = min(
                (counts.sum(axis=1) > 0).sum(), (counts.sum(axis=0) > 0).sum()
            )
            paper = cramers_v(t, "paper")
            assert 0.0 <= paper <= (smaller - 1) / smaller + 1e-12
            standard = cramers_v(t, "standard")
            if not math.isnan(standard):
                assert 0.0 <= standard <= 1.0 + 1e-12


class TestConcentrationCoefficient:
    def test_hand_values_exact(self):
        assert concentration_coefficient(table([[10, 10], [10, 10]])) == 0.0
        assert concentration_coefficient(table([[5, 0], [0, 5]])) == 1.0
        assert concentration_coefficient(table([[4, 1], [1, 4]])) == 0.36

    def test_degenerate_column_margin(self):
        assert math.isnan(concentration_coefficient(table([[7, 0], [3, 0]])))

    def test_directed(self):
        # Rows predict columns perfectly here, but not the reverse.
        t = table([[5, 0, 0], [0, 3, 2]])
        forward = concentration_coefficient(t)
        backward = concentration_coefficient(t.T)
        assert forward < 1.0
        assert backward == 1.0

    def test_range(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            counts = rng.integers(0, 30, size=(rng.integers(2, 5), rng.integers(2, 5)))
            if counts.sum() == 0:
                continue
            value = concentration_coefficient(table(counts))
            if not math.isnan(value):
                assert -1e-12 <= value <= 1.0 + 1e-12


def tau_c(x, y, levels_x, levels_y):
    return stuart_kendall_tau_c(crosstab(x, y, levels_x, levels_y))


class TestTauC:
    def test_perfect_agreement(self):
        assert tau_c([1, 2, 3], [1, 2, 3], (1, 2, 3), (1, 2, 3)) == 1.0

    def test_perfect_reversal(self):
        assert tau_c([1, 2, 3], [3, 2, 1], (1, 2, 3), (1, 2, 3)) == -1.0

    def test_constant_column(self):
        assert tau_c([1, 2, 3, 1], [2, 2, 2, 2], (1, 2, 3), (1, 2, 3)) == 0.0

    def test_m_comes_from_declared_levels(self):
        x = [0, 0, 1, 1]
        y = [0, 1, 0, 1]
        # Same data, different declared level counts, different scaling.
        loose = tau_c(x, y, (0, 1, 2), (0, 1, 2))
        tight = tau_c(x, y, (0, 1), (0, 1))
        assert loose == tau_c_pair_scan(x, y, 3, 3)
        assert tight == tau_c_pair_scan(x, y, 2, 2)

    def test_m_is_the_table_shape(self):
        """A zero row still counts towards min(R, S)."""
        counts = [[2, 0, 1], [0, 0, 0], [0, 1, 2]]
        x, y = [0, 0, 0, 2, 2, 2], [0, 0, 2, 1, 2, 2]
        assert stuart_kendall_tau_c(counts) == tau_c(x, y, (0, 1, 2), (0, 1, 2))
        assert stuart_kendall_tau_c(counts) == tau_c_pair_scan(x, y, 3, 3)
        assert stuart_kendall_tau_c(counts) != stuart_kendall_tau_c([[2, 0, 1], [0, 1, 2]])

    def test_rejects_tiny_inputs(self):
        with pytest.raises(SpecError, match="two subjects"):
            tau_c([1], [1], (1, 2), (1, 2))
        with pytest.raises(SpecError, match="two levels"):
            stuart_kendall_tau_c([[1, 1, 0]])

    def test_rejects_columns_of_different_lengths_and_nan_codes(self):
        with pytest.raises(SpecError, match="columns differ in length"):
            tau_c([1, 2, 3], [1, 2], (1, 2, 3), (1, 2, 3))
        with pytest.raises(SpecError, match="outside its declared levels"):
            tau_c([1.0, np.nan, 2.0], [1, 2, 2], (1, 2, 3), (1, 2, 3))

    def test_wide_sparse_codes_equal_pair_scan(self):
        """Codes spanning more integers than rows, and floats, take ``np.unique``."""
        rng = np.random.default_rng(8)
        levels_x, levels_y = (-10**12, -5, 7, 10**15), (0.5, 1.25, 9.0)
        x = rng.choice(levels_x, 50)
        y = rng.choice(levels_y, 50)
        assert tau_c(x, y, levels_x, levels_y) == tau_c_pair_scan(x, y, 4, 3)

    def test_production_equals_pair_scan(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            n = int(rng.integers(2, 200))
            m_x = int(rng.integers(2, 5))
            m_y = int(rng.integers(2, 5))
            x = rng.integers(0, m_x, size=n)
            y = rng.integers(0, m_y, size=n)
            assert tau_c(x, y, range(m_x), range(m_y)) == tau_c_pair_scan(x, y, m_x, m_y)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.integers(0, 3, size=60)
        y = rng.integers(0, 4, size=60)
        order = rng.permutation(60)
        assert tau_c(x, y, range(3), range(4)) == tau_c(x[order], y[order], range(3), range(4))


def mixed_dataset(n=300, seed=17):
    """Three correlated interval columns plus one nominal column."""
    variables = (
        VariableDomain("a", (0, 1, 2)),
        VariableDomain("b", (0, 1, 2)),
        VariableDomain("c", (0, 1), "nominal"),
        VariableDomain("d", (0, 1, 2), "ordinal"),
    )
    high = ProbabilityVector((0.9, 0.08, 0.02))
    low = ProbabilityVector((0.1, 0.3, 0.6))
    flat = ProbabilityVector((0.5, 0.5))
    rows = (
        (high, high, flat, high),
        (low, low, flat, low),
    )
    profile = ProfileMatrix(variables, rows)
    return generate(GeneratorSpec(ClusterSpec.uniform(2, n), profile, seed))


class TestAssociationMatrix:
    def test_unknown_measure(self):
        with pytest.raises(SpecError, match="measure"):
            association_matrix(mixed_dataset(), "phi")

    @pytest.mark.parametrize("measure", ["v", "vcc", "tauc", "pearson"])
    def test_unknown_variant_is_refused_before_the_data_is_read(self, measure):
        """Whatever the measure, and however few columns would take it."""
        one_column = (np.zeros((3, 1), np.int64), (VariableDomain("a", (0, 1)),))
        with pytest.raises(SpecError, match="variant 'bogus'"):
            association_matrix(one_column, measure, variant="bogus")
        with pytest.raises(SpecError, match="variant 'bogus'"):
            association_matrix("not data", measure, variant="bogus")

    def test_kind_gating(self):
        data = mixed_dataset()
        tauc = association_matrix(data, "tauc")
        # Column c is nominal: every off-diagonal cell involving it is NaN.
        assert np.isnan(tauc.values[2, [0, 1, 3]]).all()
        assert np.isnan(tauc.values[[0, 1, 3], 2]).all()
        assert not np.isnan(tauc.values[0, 1])
        pearson = association_matrix(data, "pearson")
        assert np.isnan(pearson.values[2, 0])
        assert np.isnan(pearson.values[3, 0])  # ordinal is not interval
        v = association_matrix(data, "v")
        assert not np.isnan(v.values[2, 0])

    def test_symmetric_measures(self):
        data = mixed_dataset()
        for measure in ("v", "tauc"):
            values = association_matrix(data, measure).values
            mask = ~np.isnan(values)
            assert np.array_equal(values[mask], values.T[mask])

    def test_vcc_is_directed_until_symmetrized(self):
        data = mixed_dataset()
        directed = association_matrix(data, "vcc").values
        assert directed[0, 2] != directed[2, 0]
        averaged = association_matrix(data, "vcc", symmetrize=True).values
        assert averaged[0, 2] == averaged[2, 0]
        assert averaged[0, 2] == pytest.approx(0.5 * (directed[0, 2] + directed[2, 0]))

    def test_vcc_cells_match_direct_calls(self):
        data = mixed_dataset()
        out = association_matrix(data, "vcc").values
        t = crosstab(
            data.values[:, 0], data.values[:, 1], (0, 1, 2), (0, 1, 2)
        )
        assert out[0, 1] == oracle.concentration_coefficient(t)
        assert out[1, 0] == oracle.concentration_coefficient(t.T)

    def test_diagonal_is_one(self):
        data = mixed_dataset()
        for measure in ("v", "vcc", "tauc", "pearson"):
            assert np.all(np.diag(association_matrix(data, measure).values) == 1.0)

    @pytest.mark.parametrize("measure", ["v", "vcc", "tauc", "pearson"])
    @pytest.mark.parametrize(
        "codes",
        [np.zeros((4, 3), np.int64), np.zeros((4, 1), np.int64), np.zeros(4, np.int64)],
        ids=["extra-column", "missing-column", "one-dimensional"],
    )
    def test_codes_that_do_not_fit_the_variables_are_refused(self, codes, measure):
        variables = (VariableDomain("a", (0, 1)), VariableDomain("b", (0, 1)))
        with pytest.raises(SpecError, match="do not fit 2 columns"):
            association_matrix((codes, variables), measure)

    def test_tuple_input_matches_dataset_input(self):
        data = mixed_dataset()
        direct = association_matrix(data, "v").values
        tupled = association_matrix((data.values, data.profile.variables), "v").values
        mask = ~np.isnan(direct)
        assert np.array_equal(direct[mask], tupled[mask])

    def test_long_format(self, tmp_path):
        """The long file: row-major triplets, each value as its float repr."""
        values = np.array([[1.0, -0.0, math.nan], [math.inf, 0.1, -math.inf], [2 / 3, 0.0, 1e-300]])
        matrix = AssociationMatrix(values, ("a", "été", "b"), "v")
        write_association(tmp_path, matrix)
        expected = (
            "p,q,value\n"
            "a,a,1.0\na,été,-0.0\na,b,nan\n"
            "été,a,inf\nété,été,0.1\nété,b,-inf\n"
            "b,a,0.6666666666666666\nb,été,0.0\nb,b,1e-300\n"
        )
        assert (tmp_path / "v_long.csv").read_bytes() == expected.encode("utf-8")


class TestPearsonMatrix:
    def test_matches_corrcoef(self):
        data = mixed_dataset()
        ours = association_matrix(data, "pearson").values
        reference = np.corrcoef(data.values[:, [0, 1, 3]].astype(float).T)
        picked = ours[np.ix_([0, 1, 3], [0, 1, 3])]
        # Column d is ordinal, so its cells are NaN in ours; compare a,b only.
        assert picked[0, 1] == pytest.approx(reference[0, 1], abs=1e-12)

    def test_zero_variance_column(self):
        values = np.array([[0, 1], [0, 2], [0, 1]])
        variables = (VariableDomain("k", (0, 1)), VariableDomain("m", (1, 2)))
        out = association_matrix((values, variables), "pearson").values
        assert math.isnan(out[0, 1])
        assert out[0, 0] == 1.0

    def test_single_cluster_null_is_flat(self):
        cell = ProbabilityVector((0.3, 0.4, 0.3))
        variables = tuple(VariableDomain(f"x{p}", (0, 1, 2)) for p in range(6))
        profile = ProfileMatrix(variables, ((cell,) * 6,))
        data = generate(GeneratorSpec(ClusterSpec.uniform(1, 2000), profile, 77))
        out = association_matrix(data, "pearson").values
        off = out[~np.eye(6, dtype=bool)]
        assert np.nanmax(np.abs(off)) < 4.0 / math.sqrt(2000)
