"""Calibration: genotype family, the weighted dependence, the bisection solver.

The balanced closed forms in ``closed_forms`` serve as oracles for the
library's general weighted code.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closed_forms import (
    balanced_low_parameter as solve,
    binary_mixture_variance,
    binary_pair_dependence,
    hardy_weinberg_moments,
    hardy_weinberg_probs,
    snp_mixture_variance,
    snp_pair_dependence,
)
from moment_oracles import brute_force_moments
from synthcat.calibration import (
    PARAMETRIC_FAMILIES,
    RESIDUAL_TOLERANCE,
    calibrate_group,
    pair_dependence,
)
from synthcat.model import (
    ClusterSpec,
    DependenceTarget,
    GroupStructure,
    InfeasibleTargetError,
    ProbabilityVector,
    ProfileMatrix,
    SpecError,
    VariableDomain,
)
from synthcat.moments import moment_matrices


class TestHardyWeinberg:
    def test_known_vectors(self):
        assert hardy_weinberg_probs(0.25) == pytest.approx((0.0625, 0.375, 0.5625))
        assert hardy_weinberg_probs(0.95) == pytest.approx((0.9025, 0.095, 0.0025))
        assert hardy_weinberg_probs(0.5) == pytest.approx((0.25, 0.5, 0.25))

    def test_vectors_always_normalise(self):
        for p in np.linspace(0.01, 0.99, 50):
            assert sum(hardy_weinberg_probs(p)) == pytest.approx(1.0, abs=1e-15)

    def test_moments(self):
        mean, var = hardy_weinberg_moments(0.25)
        assert mean == pytest.approx(1.5)
        assert var == pytest.approx(0.375)
        mean, var = hardy_weinberg_moments(0.95)
        assert mean == pytest.approx(0.1)
        assert var == pytest.approx(0.095)

    def test_boundary_warns(self):
        with pytest.warns(UserWarning, match="degenerate"):
            hardy_weinberg_probs(1.0)
        with pytest.raises(SpecError):
            hardy_weinberg_probs(1.5)

    def test_snp_family_is_the_genotype_vector(self):
        levels, vector = PARAMETRIC_FAMILIES["snp"]
        assert levels == (0, 1, 2)
        for p in np.linspace(0.05, 0.95, 19):
            assert vector(p) == pytest.approx(hardy_weinberg_probs(p), abs=1e-15)

    def test_moments_match_direct_expectation(self):
        for p in np.linspace(0.05, 0.95, 19):
            probs = np.asarray(hardy_weinberg_probs(p))
            codes = np.array([0.0, 1.0, 2.0])
            mean, var = hardy_weinberg_moments(p)
            assert mean == pytest.approx(codes @ probs, abs=1e-14)
            assert var == pytest.approx((codes - mean) ** 2 @ probs, abs=1e-14)


class TestMixtureVariances:
    def test_binary(self):
        # Mix of Bernoulli(0.9) and Bernoulli(0.1) is marginally Bernoulli(0.5).
        assert binary_mixture_variance(0.9, 0.1) == pytest.approx(0.25)

    def test_snp_special_points(self):
        for ph in (0.3, 0.5, 0.95):
            assert snp_mixture_variance(ph, ph) == pytest.approx(2 * ph * (1 - ph))
            assert snp_mixture_variance(ph, 0.0) == pytest.approx(ph)

    def test_snp_matches_exact_mixture_moments(self):
        rng = np.random.default_rng(8)
        variables = (VariableDomain("s", (0, 1, 2)),)
        for _ in range(25):
            ph, pl = rng.uniform(0.05, 0.95, size=2)
            profile = ProfileMatrix(
                variables,
                (
                    (ProbabilityVector(hardy_weinberg_probs(ph)),),
                    (ProbabilityVector(hardy_weinberg_probs(pl)),),
                ),
            )
            matrices = moment_matrices(profile, ClusterSpec.uniform(2, 10))
            assert snp_mixture_variance(ph, pl) == pytest.approx(
                matrices.variances[0], abs=1e-13
            )


class TestBinarySolvers:
    def test_covariance_closed_form(self):
        low = solve("binary", 0.8, "covariance", 0.04)
        assert low == pytest.approx(0.8 - 2 * 0.2)
        cov, _ = binary_pair_dependence(0.8, low)
        assert cov == pytest.approx(0.04, abs=1e-15)

    def test_covariance_feasibility(self):
        # The ceiling (f_H / 2)^2 needs f_L = 0, a degenerate column: refused.
        limit = (0.8 / 2) ** 2
        for value in (limit, limit + 1e-9, 0.0):
            with pytest.raises(InfeasibleTargetError):
                solve("binary", 0.8, "covariance", value)

    def test_correlation_round_trip(self):
        for high in (0.6, 0.8, 0.95):
            ceiling = high / (2 - high)
            for target in np.linspace(0.05, ceiling - 0.02, 12):
                low = solve("binary", high, "correlation", float(target))
                _, cor = binary_pair_dependence(high, low)
                assert cor == pytest.approx(target, abs=1e-10)

    def test_correlation_ceiling(self):
        ceiling = 0.8 / (2 - 0.8)
        with pytest.raises(InfeasibleTargetError, match="ceiling"):
            solve("binary", 0.8, "correlation", ceiling)
        with pytest.raises(InfeasibleTargetError):
            solve("binary", 0.8, "correlation", 1.0)


class TestSnpSolvers:
    def test_covariance_closed_form_is_literal(self):
        # The solver must be exactly high - sqrt(cov), bit for bit.
        assert solve("snp", 0.95, "covariance", 0.45) == 0.95 - math.sqrt(0.45)

    def test_covariance_round_trip(self):
        for cov in np.arange(0.1, 0.451, 0.05):
            low = solve("snp", 0.95, "covariance", float(cov))
            achieved, _ = snp_pair_dependence(0.95, low)
            assert achieved == pytest.approx(cov, abs=1e-12)

    def test_covariance_feasibility(self):
        with pytest.raises(InfeasibleTargetError):
            solve("snp", 0.95, "covariance", 0.95**2)
        with pytest.raises(InfeasibleTargetError):
            solve("snp", 0.95, "covariance", 0.0)
        with pytest.raises(SpecError):
            solve("snp", 1.0, "covariance", 0.1)

    def test_correlation_round_trip(self):
        for target in (0.4, 0.5, 0.6, 0.7, 0.8):
            low = solve("snp", 0.95, "correlation", target)
            _, cor = snp_pair_dependence(0.95, low)
            assert cor == pytest.approx(target, abs=1e-10)
            assert 0.0 < low < 0.95

    def test_correlation_round_trip_near_the_ceiling(self):
        low = solve("snp", 0.99, "correlation", 0.98)
        _, cor = snp_pair_dependence(0.99, low)
        assert cor == pytest.approx(0.98, abs=1e-10)

    def test_correlation_ceiling_is_the_high_parameter(self):
        with pytest.raises(InfeasibleTargetError, match="ceiling"):
            solve("snp", 0.95, "correlation", 0.95)
        with pytest.raises(InfeasibleTargetError, match="ceiling"):
            solve("snp", 0.95, "correlation", 0.96)

    def test_solutions_are_seedless_and_repeatable(self):
        first = [solve("snp", 0.95, "correlation", t) for t in (0.4, 0.6, 0.8)]
        second = [solve("snp", 0.95, "correlation", t) for t in (0.4, 0.6, 0.8)]
        assert first == second


BALANCED = (0.5,) * 4


class TestCalibrateGroup:
    def structure(self, kind, values):
        return GroupStructure(
            sizes=(2, 2, 5, 3),
            targets=tuple(DependenceTarget(kind, v) for v in values),
        )

    def test_snp_shared_covariance(self):
        result = calibrate_group(
            self.structure("covariance", [0.45] * 4), "snp", BALANCED, high_prob=0.95
        )
        assert result.levels == (0, 1, 2)
        for g in result.groups:
            assert g.low_parameter == 0.95 - math.sqrt(0.45)
            assert g.covariance == pytest.approx(0.45, abs=1e-12)
            assert g.high.probs == pytest.approx(hardy_weinberg_probs(0.95))

    def test_snp_mixed_correlations(self):
        result = calibrate_group(
            self.structure("correlation", [0.4, 0.5, 0.6, 0.7]), "snp", BALANCED, high_prob=0.95
        )
        for g, target in zip(result.groups, (0.4, 0.5, 0.6, 0.7)):
            assert g.correlation == pytest.approx(target, abs=1e-10)

    def test_binary_family(self):
        result = calibrate_group(
            self.structure("correlation", [0.2, 0.3, 0.2, 0.1]), "binary", BALANCED, high_prob=0.8
        )
        assert result.levels == (0, 1)
        for g, target in zip(result.groups, (0.2, 0.3, 0.2, 0.1)):
            assert g.correlation == pytest.approx(target, abs=1e-10)
            assert g.high.probs == pytest.approx((0.2, 0.8))

    def test_explicit_family_reports_implied_dependence(self):
        structure = GroupStructure(sizes=(3, 3, 3, 3))
        high = hardy_weinberg_probs(0.95)
        low = hardy_weinberg_probs(0.25)
        result = calibrate_group(structure, "explicit", BALANCED, high=high, low=low)
        f_h, _ = hardy_weinberg_moments(0.95)
        f_l, _ = hardy_weinberg_moments(0.25)
        expected_cov = 0.25 * (f_h - f_l) ** 2
        for g in result.groups:
            assert g.covariance == pytest.approx(expected_cov, abs=1e-14)
            assert g.target is None

    def test_explicit_family_rejects_targets(self):
        with pytest.raises(SpecError, match="targets"):
            calibrate_group(
                self.structure("covariance", [0.1] * 4), "explicit", BALANCED,
                high=(0.5, 0.5), low=(0.9, 0.1),
            )

    @pytest.mark.parametrize("family", ["binary", "snp"])
    @pytest.mark.parametrize("vector", ["high", "low"])
    def test_parametric_family_refuses_literal_vectors(self, family, vector):
        with pytest.raises(SpecError, match=f"{family} family: H and L are solved"):
            calibrate_group(
                self.structure("correlation", [0.2] * 4), family, BALANCED,
                high_prob=0.8, **{vector: (0.5, 0.5)},
            )

    def test_explicit_family_refuses_a_high_parameter(self):
        with pytest.raises(SpecError, match="explicit family: .* pH does not apply"):
            calibrate_group(
                GroupStructure(sizes=(3, 3, 3, 3)), "explicit", BALANCED,
                high_prob=0.95, high=(0.5, 0.5), low=(0.9, 0.1),
            )

    def test_missing_requirements(self):
        with pytest.raises(SpecError, match="high parameter"):
            calibrate_group(self.structure("covariance", [0.1] * 4), "snp", BALANCED)
        with pytest.raises(SpecError, match="targets"):
            calibrate_group(GroupStructure(sizes=(2, 2)), "snp", (0.5, 0.5), high_prob=0.9)
        with pytest.raises(SpecError, match="family"):
            calibrate_group(
                self.structure("covariance", [0.1] * 4), "poisson", BALANCED, high_prob=0.9
            )
        with pytest.raises(SpecError, match="high weights"):
            calibrate_group(self.structure("covariance", [0.1] * 4), "snp", (0.5,), high_prob=0.9)

    def test_infeasible_group_is_reported(self):
        with pytest.raises(InfeasibleTargetError):
            calibrate_group(
                self.structure("correlation", [0.4, 0.96, 0.4, 0.4]), "snp", BALANCED,
                high_prob=0.95,
            )


def two_cluster_spec(family, high_param, low_param, high_weight):
    """Two pattern-identical columns: H in cluster 1, L in cluster 2."""
    levels, vector = PARAMETRIC_FAMILIES[family]
    high = ProbabilityVector(vector(high_param))
    low = ProbabilityVector(vector(low_param))
    variables = (VariableDomain("a", levels), VariableDomain("b", levels))
    profile = ProfileMatrix(variables, ((high, high), (low, low)))
    return profile, ClusterSpec.from_weights((high_weight, 1.0 - high_weight), 10)


families = st.sampled_from(sorted(PARAMETRIC_FAMILIES))
params = st.floats(0.01, 0.99)


class TestWeightedDependence:
    @settings(max_examples=150, deadline=None)
    @given(family=families, high_param=params, low_param=params, high_weight=params)
    def test_pair_dependence_matches_the_moment_engines(
        self, family, high_param, low_param, high_weight
    ):
        levels, vector = PARAMETRIC_FAMILIES[family]
        cov, cor = pair_dependence(levels, vector(high_param), vector(low_param), high_weight)
        profile, clusters = two_cluster_spec(family, high_param, low_param, high_weight)
        engines = (moment_matrices, brute_force_moments)
        for matrices in (engine(profile, clusters) for engine in engines):
            assert cov == pytest.approx(matrices.covariance[0, 1], abs=1e-12)
            assert cor == pytest.approx(matrices.correlation[0, 1], abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(
        family=families,
        kind=st.sampled_from(["covariance", "correlation"]),
        high_param=st.floats(0.05, 0.99),
        high_weight=st.floats(0.05, 0.95),
        fraction=st.floats(0.01, 0.99),
    )
    def test_feasible_targets_round_trip(self, family, kind, high_param, high_weight, fraction):
        levels, vector = PARAMETRIC_FAMILIES[family]
        which = ("covariance", "correlation").index(kind)
        ceiling = pair_dependence(levels, vector(high_param), vector(0.0), high_weight)[which]
        target = DependenceTarget(kind, fraction * ceiling)
        result = calibrate_group(
            GroupStructure(sizes=(2,), targets=(target,)), family, (high_weight,),
            high_prob=high_param,
        )
        solved = result.groups[0]
        assert 0.0 < solved.low_parameter < high_param
        profile, clusters = two_cluster_spec(
            family, high_param, solved.low_parameter, high_weight
        )
        matrices = moment_matrices(profile, clusters)
        achieved = (matrices.covariance, matrices.correlation)[which][0, 1]
        assert abs(achieved - target.value) < RESIDUAL_TOLERANCE
