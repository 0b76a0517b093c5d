"""Exact moments: closed forms vs the enumeration oracle and hand values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closed_forms import (
    cluster_means,
    equal_weight_covariance,
    hardy_weinberg_probs,
    marginal_covariance,
    marginal_mean,
    within_group_covariance,
)
from moment_oracles import brute_force_moments
from synthcat.generator import bind_pattern, build_spec
from synthcat.model import (
    ClusterSpec,
    ProbabilityVector,
    ProfileMatrix,
    SpecError,
    VariableDomain,
    load_config,
)
from synthcat.moments import moment_matrices
from synthcat.patterns import balanced_pattern


def random_profile(rng, c_count, p_count, one_based=False):
    variables = []
    rows = [[] for _ in range(c_count)]
    for p in range(p_count):
        m = rng.integers(2, 4)
        base = 1 if one_based else 0
        variables.append(VariableDomain(f"x{p + 1}", tuple(range(base, base + m))))
        for c in range(c_count):
            probs = rng.random(m)
            probs /= probs.sum()
            rows[c].append(ProbabilityVector(tuple(probs)))
    return ProfileMatrix(tuple(variables), tuple(tuple(r) for r in rows))


class TestClusterMeans:
    def test_level_codes_are_used_verbatim(self):
        variables = (VariableDomain("a", (1, 2, 3)),)
        cell = ProbabilityVector((0.2, 0.3, 0.5))
        profile = ProfileMatrix(variables, ((cell,),))
        assert moment_matrices(profile, ClusterSpec.uniform(1, 10)).means[0] == pytest.approx(2.3)

    def test_genotype_mean_and_variance(self):
        probs = hardy_weinberg_probs(0.25)
        variables = (VariableDomain("snp", (0, 1, 2)),)
        profile = ProfileMatrix(variables, ((ProbabilityVector(probs),),))
        matrices = moment_matrices(profile, ClusterSpec.uniform(1, 10))
        assert matrices.means[0] == pytest.approx(1.5)
        assert matrices.variances[0] == pytest.approx(0.375)


class TestMarginalFormulas:
    def test_two_point_covariance(self):
        weights = np.array([0.5, 0.5])
        means = np.array([0.0, 2.0])
        assert marginal_covariance(weights, means, means) == pytest.approx(1.0)

    def test_two_cluster_product_form(self):
        # Cov = w1 w2 (f1 - f2)^2 when both columns share the same means.
        rng = np.random.default_rng(5)
        for _ in range(50):
            w1 = rng.uniform(0.1, 0.9)
            weights = np.array([w1, 1 - w1])
            f = rng.normal(size=2)
            expected = w1 * (1 - w1) * (f[0] - f[1]) ** 2
            assert marginal_covariance(weights, f, f) == pytest.approx(expected, abs=1e-14)

    def test_four_cluster_alternating_means(self):
        weights = np.full(4, 0.25)
        a, b = 0.3, 1.7
        f = np.array([a, b, a, b])
        assert marginal_covariance(weights, f, f) == pytest.approx(0.25 * (a - b) ** 2)

    def test_noise_column_covariance_is_exactly_zero(self):
        weights = np.full(6, 1 / 6)
        rng = np.random.default_rng(0)
        f_p = rng.normal(size=6)
        f_q = np.full(6, 1.25)
        assert marginal_covariance(weights, f_p, f_q) == 0.0

    def test_degenerate_variance_is_exactly_zero(self):
        variables = (VariableDomain("a", (0, 1, 2)),)
        at_two = ProbabilityVector((0.0, 0.0, 1.0))
        profile = ProfileMatrix(variables, ((at_two,), (at_two,)))
        assert moment_matrices(profile, ClusterSpec.uniform(2, 10)).variances[0] == 0.0

    def test_mean(self):
        assert marginal_mean(np.array([0.25, 0.75]), np.array([1.0, 3.0])) == pytest.approx(2.5)


class TestEqualWeightForm:
    def test_matches_the_weighted_form(self):
        rng = np.random.default_rng(17)
        for c_count in (2, 4, 6, 8):
            weights = np.full(c_count, 1 / c_count)
            f_p = rng.normal(size=c_count)
            f_q = rng.normal(size=c_count)
            assert equal_weight_covariance(f_p, f_q) == pytest.approx(
                marginal_covariance(weights, f_p, f_q), abs=1e-14
            )

    def test_nonzero_pair_count_is_quarter_c_squared(self):
        # Two pattern-identical columns: the pairwise sum has a nonzero term
        # exactly when the clusters take opposite labels.
        for c_count in (2, 4, 6, 8, 10, 12):
            divisor = 2 ** (c_count // 2 - 1)
            pattern = balanced_pattern(c_count, 2 * divisor)
            f_h, f_l = 1.9, 0.5
            means = {"H": f_h, "L": f_l}
            f_p = np.array([means[row[0]] for row in pattern.symbols])
            f_q = np.array([means[row[1]] for row in pattern.symbols])
            nonzero = sum(
                1
                for a in range(c_count)
                for b in range(a + 1, c_count)
                if (f_p[a] - f_p[b]) * (f_q[a] - f_q[b]) != 0.0
            )
            assert nonzero == c_count**2 // 4


class TestWithinGroupForm:
    def test_quarter_product_of_mean_gaps(self):
        assert within_group_covariance(1.9, 0.5, 1.9, 0.5) == pytest.approx(0.25 * 1.4**2)
        assert within_group_covariance(1.0, 1.0, 2.0, 0.0) == 0.0

    def test_agrees_with_full_matrix_on_a_grouped_spec(self):
        config = load_config(
            {
                "seed": 3,
                "clusters": {"n": 600},
                "groups": {
                    "k": 4,
                    "sizes": [2, 2, 5, 3],
                    "family": "snp",
                    "pH": 0.95,
                    "targets": [{"covariance": 0.45}] * 4,
                },
            }
        )
        built = build_spec(config)
        matrices = moment_matrices(built.spec.profile, built.spec.clusters)
        f = cluster_means(built.spec.profile)
        pattern_groups = built.groups.column_groups()
        for p in range(12):
            for q in range(12):
                if p != q and pattern_groups[p] == pattern_groups[q]:
                    f_h = f[:, p].max()
                    f_l = f[:, p].min()
                    g_h = f[:, q].max()
                    g_l = f[:, q].min()
                    expected = within_group_covariance(f_h, f_l, g_h, g_l)
                    assert matrices.covariance[p, q] == pytest.approx(expected, abs=1e-12)
                    assert matrices.covariance[p, q] == pytest.approx(0.45, abs=1e-12)


class TestMomentMatrices:
    def test_diagonal_carries_variances(self):
        rng = np.random.default_rng(2)
        profile = random_profile(rng, 3, 3)
        clusters = ClusterSpec.uniform(3, 30)
        matrices = moment_matrices(profile, clusters)
        assert np.array_equal(np.diag(matrices.covariance), matrices.variances)
        assert np.all(np.diag(matrices.correlation) == 1.0)

    def test_constant_column_gets_nan_correlation(self):
        variables = (VariableDomain("a", (0, 1)), VariableDomain("b", (0, 1)))
        const = ProbabilityVector((0.0, 1.0))
        live_h = ProbabilityVector((0.2, 0.8))
        live_l = ProbabilityVector((0.8, 0.2))
        profile = ProfileMatrix(variables, ((const, live_h), (const, live_l)))
        matrices = moment_matrices(profile, ClusterSpec.uniform(2, 10))
        assert math.isnan(matrices.correlation[0, 1])
        assert math.isnan(matrices.correlation[0, 0])
        assert matrices.covariance[0, 1] == 0.0

    def test_covariance_is_exactly_symmetric(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            weights = rng.random(5)
            weights /= weights.sum()
            clusters = ClusterSpec.from_weights(tuple(weights), 50)
            cov = moment_matrices(random_profile(rng, 5, 12), clusters).covariance
            assert np.array_equal(cov, cov.T)

    def test_oracle_agreement_on_random_specs(self):
        rng = np.random.default_rng(11)
        for trial in range(200):
            c_count = int(rng.integers(1, 7))
            p_count = int(rng.integers(1, 5))
            profile = random_profile(rng, c_count, p_count, one_based=bool(trial % 2))
            if trial % 3:
                clusters = ClusterSpec.uniform(c_count, 10 * c_count)
            else:
                weights = rng.random(c_count)
                weights /= weights.sum()
                clusters = ClusterSpec.from_weights(tuple(weights), 10 * c_count)
            fast = moment_matrices(profile, clusters)
            slow = brute_force_moments(profile, clusters)
            assert np.allclose(fast.means, slow.means, atol=1e-12)
            assert np.allclose(fast.covariance, slow.covariance, atol=1e-12)
            live = ~np.isnan(fast.correlation)
            assert np.array_equal(live, ~np.isnan(slow.correlation))
            assert np.allclose(fast.correlation[live], slow.correlation[live], atol=1e-12)

    def test_enumeration_guard(self):
        rng = np.random.default_rng(1)
        profile = random_profile(rng, 2, 21)
        with pytest.raises(SpecError, match="enumeration"):
            brute_force_moments(profile, ClusterSpec.uniform(2, 10))


class TestStructuralOrdering:
    def test_within_group_blocks_dominate_between(self):
        # Same H/L vectors everywhere: all within-group covariances equal,
        # and strictly larger than anything between groups.
        pattern = balanced_pattern(8, 16)
        variables = tuple(VariableDomain(f"x{p + 1}", (0, 1, 2)) for p in range(16))
        high = ProbabilityVector(hardy_weinberg_probs(0.95))
        low = ProbabilityVector(hardy_weinberg_probs(0.25))
        profile = bind_pattern(pattern, variables, high, low)
        matrices = moment_matrices(profile, ClusterSpec.uniform(8, 800))
        within = []
        between = []
        for p in range(16):
            for q in range(p + 1, 16):
                value = matrices.covariance[p, q]
                if pattern.column_groups[p] == pattern.column_groups[q]:
                    within.append(value)
                else:
                    between.append(value)
        assert len(within) == 8
        assert max(within) - min(within) < 1e-12
        assert min(within) > max(between)


@st.composite
def mixture_specs(draw):
    """(profile, clusters, constant): C 1-5 clusters, P 1-4 variables.

    Codes are 2-4 increasing integers in [-1000, 1000], so widths differ
    and the stacked profile is padded.  Cells come from small integer
    masses, so levels of probability zero and degenerate cells are common.
    A column flagged in ``constant`` has the same cell in every cluster.
    Cluster weights are random.
    """
    c_count = draw(st.integers(1, 5))
    p_count = draw(st.integers(1, 4))
    variables, columns, constant = [], [], []
    for p in range(p_count):
        levels = tuple(sorted(draw(st.sets(st.integers(-1000, 1000), min_size=2, max_size=4))))
        masses = st.lists(st.integers(0, 4), min_size=len(levels), max_size=len(levels))
        constant.append(draw(st.booleans()))
        cells = []
        for c in range(c_count):
            if constant[p] and cells:
                cells.append(cells[0])
                continue
            mass = draw(masses.filter(any))
            cells.append(ProbabilityVector(tuple(m / sum(mass) for m in mass)))
        variables.append(VariableDomain(f"x{p + 1}", levels))
        columns.append(cells)
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=c_count, max_size=c_count)))
    clusters = ClusterSpec.from_weights(tuple(weights / weights.sum()), 10 * c_count)
    profile = ProfileMatrix(tuple(variables), tuple(zip(*columns)))
    return profile, clusters, constant


@settings(max_examples=300, deadline=None)
@given(mixture_specs())
def test_closed_forms_match_enumeration(spec):
    profile, clusters, constant = spec
    fast = moment_matrices(profile, clusters)
    slow = brute_force_moments(profile, clusters)
    # The enumeration rounds relative to the codes, not to a cell near zero.
    scale = max(abs(x) for v in profile.variables for x in v.levels)
    np.testing.assert_allclose(fast.means, slow.means, rtol=1e-12, atol=1e-12 * scale)
    np.testing.assert_allclose(fast.covariance, slow.covariance, rtol=1e-12, atol=1e-12 * scale**2)
    live = ~np.isnan(fast.correlation)
    np.testing.assert_allclose(fast.correlation[live], slow.correlation[live], rtol=1e-12, atol=1e-12)
    assert np.array_equal(fast.covariance, fast.covariance.T)
    off = ~np.eye(profile.variable_count, dtype=bool)
    for p in np.flatnonzero(constant):
        assert np.all(fast.covariance[p][off[p]] == 0.0)
        if max(profile.cell(0, p).probs) == 1.0:
            assert fast.variances[p] == 0.0
