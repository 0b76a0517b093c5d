"""Generation: allocation, pattern binding, determinism, independence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from helpers import dataset_violations
from closed_forms import hardy_weinberg_probs
from synthcat.generator import (
    GeneratorSpec,
    allocate_subjects,
    bind_pattern,
    build_spec,
    generate,
)
from synthcat.model import (
    ClusterSpec,
    GroupStructure,
    ProbabilityVector,
    ProfileMatrix,
    SpecError,
    VariableDomain,
    load_config,
)
from synthcat.moments import moment_matrices
from synthcat.patterns import PatternMatrix, balanced_pattern, grouped_pattern
from synthcat.sampling import column_uniforms, shuffle_order

H_PROBS = hardy_weinberg_probs(0.95)
L_PROBS = hardy_weinberg_probs(0.25)
SNP = (0, 1, 2)


def domains(count, levels=SNP):
    return tuple(VariableDomain(f"x{p + 1}", levels) for p in range(count))


def genotype_profile():
    """Balanced 8x16 layout with genotype H/L vectors."""
    pattern = balanced_pattern(8, 16)
    return bind_pattern(
        pattern, domains(16), ProbabilityVector(H_PROBS), ProbabilityVector(L_PROBS)
    )


class TestAllocation:
    def test_contiguous_blocks(self):
        clusters = ClusterSpec.uniform(2, 4)
        assert allocate_subjects(clusters).tolist() == [1, 1, 2, 2]

    def test_unequal_counts(self):
        clusters = ClusterSpec.from_counts((3, 5))
        assert allocate_subjects(clusters).tolist() == [1] * 3 + [2] * 5

    def test_large_uniform(self):
        clusters = ClusterSpec.uniform(12, 6000)
        z = allocate_subjects(clusters)
        assert len(z) == 6000
        assert np.bincount(z)[1:].tolist() == [500] * 12


class TestBindPattern:
    def test_broadcast_single_vector(self):
        profile = genotype_profile()
        assert profile.cluster_count == 8
        assert profile.variable_count == 16
        # Row 2 of the layout is all-H.
        assert all(
            profile.cell(1, p).probs == pytest.approx(H_PROBS) for p in range(16)
        )
        assert all(
            profile.cell(0, p).probs == pytest.approx(L_PROBS) for p in range(16)
        )

    def test_per_column_vectors(self):
        pattern = balanced_pattern(2, 2)
        highs = [ProbabilityVector((0.1, 0.9)), ProbabilityVector((0.2, 0.8))]
        lows = [ProbabilityVector((0.9, 0.1)), ProbabilityVector((0.8, 0.2))]
        profile = bind_pattern(pattern, domains(2, (0, 1)), highs, lows)
        assert profile.cell(1, 0).probs == (0.1, 0.9)
        assert profile.cell(1, 1).probs == (0.2, 0.8)
        assert profile.cell(0, 1).probs == (0.8, 0.2)

    def test_one_noise_vector_per_noise_column(self):
        pattern, _ = grouped_pattern(GroupStructure((1, 1), noise_count=2))
        high, low = ProbabilityVector((0.1, 0.9)), ProbabilityVector((0.9, 0.1))
        noise = [ProbabilityVector((0.25, 0.75)), ProbabilityVector((0.5, 0.5))]
        profile = bind_pattern(pattern, domains(4, (0, 1)), high, low, noise=noise)
        plain = bind_pattern(pattern, domains(2, (0, 1)), high, low)
        assert profile.variable_count == 4
        for c in range(profile.cluster_count):
            assert profile.rows[c][:2] == plain.rows[c]
            assert list(profile.rows[c][2:]) == noise
        for wrong in ([], noise[:1], noise + noise[:1]):
            with pytest.raises(SpecError, match="noise columns"):
                bind_pattern(pattern, domains(4, (0, 1)), high, low, noise=wrong)

    def test_labels_other_than_high_and_low_are_refused(self):
        pattern = PatternMatrix((("H", "A"), ("L", "A")), (1, 2))
        with pytest.raises(SpecError, match="labels"):
            bind_pattern(
                pattern,
                domains(2, (0, 1)),
                ProbabilityVector((0.1, 0.9)),
                ProbabilityVector((0.9, 0.1)),
            )

    def test_per_column_count_mismatch(self):
        pattern = balanced_pattern(2, 2)
        with pytest.raises(SpecError, match="high"):
            bind_pattern(
                pattern,
                domains(2, (0, 1)),
                [ProbabilityVector((0.1, 0.9))],
                ProbabilityVector((0.9, 0.1)),
            )

    def test_domain_count_mismatch(self):
        pattern = balanced_pattern(2, 2)
        with pytest.raises(SpecError, match="domains"):
            bind_pattern(
                pattern,
                domains(5, (0, 1)),
                ProbabilityVector((0.1, 0.9)),
                ProbabilityVector((0.9, 0.1)),
            )


class TestGenerate:
    def spec(self, seed=101, n=800):
        return GeneratorSpec(ClusterSpec.uniform(8, n), genotype_profile(), seed)

    def test_shape_and_validity(self):
        data = generate(self.spec())
        assert data.values.shape == (800, 16)
        assert not dataset_violations(data)
        assert set(np.unique(data.values)) <= {0, 1, 2}

    def test_cell_frequencies_track_the_profile(self):
        # 500 subjects per cluster puts the sampling error of a frequency
        # near 0.013, so 0.05 is a five-sigma envelope.
        spec = self.spec(seed=11, n=4000)
        data = generate(spec)
        worst = 0.0
        for c in range(8):
            block = data.values[data.assignments == c + 1]
            for p in range(16):
                expected = spec.profile.cell(c, p).probs[0]
                observed = np.mean(block[:, p] == 0)
                worst = max(worst, abs(observed - expected))
        assert worst < 0.05

    def test_same_seed_is_identical(self):
        first = generate(self.spec())
        second = generate(self.spec())
        assert np.array_equal(first.values, second.values)
        assert np.array_equal(first.assignments, second.assignments)

    def test_different_seeds_differ(self):
        first = generate(self.spec(seed=101))
        second = generate(self.spec(seed=102))
        assert not np.array_equal(first.values, second.values)

    def test_thread_count_does_not_change_output(self):
        serial = generate(self.spec())
        for threads in (2, 8):
            parallel = generate(self.spec(), threads=threads)
            assert np.array_equal(serial.values, parallel.values)

    @pytest.mark.filterwarnings("ignore:identifiability")
    def test_columns_are_stable_under_widening(self):
        # Each column has its own stream, so adding variables to a spec
        # must not disturb the columns that were already there.
        narrow_profile = ProfileMatrix(
            genotype_profile().variables[:3],
            tuple(row[:3] for row in genotype_profile().rows),
        )
        narrow = generate(GeneratorSpec(ClusterSpec.uniform(8, 800), narrow_profile, 101))
        wide = generate(self.spec())
        assert np.array_equal(narrow.values, wide.values[:, :3])

    def test_shuffle_reorders_in_lockstep(self):
        plain = generate(self.spec())
        shuffled = generate(self.spec(), shuffle=True)
        order = shuffle_order(101, 800)
        assert np.array_equal(shuffled.values, plain.values[order])
        assert np.array_equal(shuffled.assignments, plain.assignments[order])
        assert shuffled.shuffled
        assert not dataset_violations(shuffled)
        assert not np.array_equal(shuffled.assignments, plain.assignments)

    @pytest.mark.filterwarnings("ignore:identifiability")
    def test_degenerate_profile_is_constant(self):
        cell = ProbabilityVector((0.0, 1.0, 0.0))
        profile = ProfileMatrix(domains(2), ((cell, cell), (cell, cell)))
        data = generate(GeneratorSpec(ClusterSpec.uniform(2, 50), profile, 3))
        assert np.all(data.values == 1)

    def test_mismatched_spec_is_rejected(self):
        with pytest.raises(SpecError):
            generate(GeneratorSpec(ClusterSpec.uniform(4, 40), genotype_profile(), 1))

    def test_identifiability_warning_surfaces(self):
        cell_a = ProbabilityVector((0.3, 0.7))
        cell_b = ProbabilityVector((0.7, 0.3))
        rows = tuple(
            (cell_a, cell_b) if c % 2 else (cell_b, cell_a) for c in range(8)
        )
        profile = ProfileMatrix(domains(2, (0, 1)), rows)
        with pytest.warns(UserWarning, match="identif"):
            generate(GeneratorSpec(ClusterSpec.uniform(8, 80), profile, 9))

    def test_within_cluster_columns_are_independent(self):
        # Local independence: inside one cluster any two columns should
        # pass a contingency test at the nominal rate.
        cell_x = ProbabilityVector((0.3, 0.7))
        cell_y = ProbabilityVector((0.5, 0.25, 0.25))
        profile = ProfileMatrix(
            (VariableDomain("x", (0, 1)), VariableDomain("y", SNP)),
            ((cell_x, cell_y),),
        )
        rejections = 0
        for seed in range(100):
            data = generate(GeneratorSpec(ClusterSpec.uniform(1, 400), profile, seed))
            table = np.zeros((2, 3))
            np.add.at(table, (data.values[:, 0], data.values[:, 1]), 1)
            _, p_value, _, _ = stats.chi2_contingency(table, correction=False)
            rejections += p_value < 0.05
        assert rejections <= 13


def oracle_generate(spec: GeneratorSpec, shuffle: bool):
    """The per-column draw: each cluster block's uniforms looked up by searchsorted."""
    n, p_count = spec.clusters.subjects, spec.profile.variable_count
    widest = max(domain.size for domain in spec.profile.variables)
    positions = np.empty((n, p_count), dtype=np.min_scalar_type(widest - 1))
    for p in range(p_count):
        uniforms = column_uniforms(spec.seed, p, n)
        start = 0
        for c, count in enumerate(spec.clusters.counts):
            edges = np.clip(np.cumsum(spec.profile.cell(c, p).as_array())[:-1], 0.0, 1.0)
            block = slice(start, start + count)
            positions[block, p] = np.searchsorted(edges, uniforms[block], side="right")
            start += count
    assignments = allocate_subjects(spec.clusters)
    if shuffle:
        order = shuffle_order(spec.seed, n)
        return positions[order], assignments[order]
    return positions, assignments


@st.composite
def explicit_specs(draw):
    """Small explicit-profile specs with zero-probability levels.

    Widths mix 2 to 300 levels (uint16 above 256), and the uneven cluster
    counts may leave a cluster empty.
    """
    widths = draw(st.lists(st.sampled_from((2, 3, 4, 5, 17, 256, 300)), min_size=1, max_size=5))
    counts = draw(st.lists(st.integers(0, 40), min_size=1, max_size=4).filter(any))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in counts:
        row = []
        for m in widths:
            weights = rng.integers(0, 4, m) * (rng.random(m) < 0.7)
            weights[rng.integers(m)] += 1
            row.append(ProbabilityVector(tuple((weights / weights.sum()).tolist())))
        rows.append(tuple(row))
    variables = tuple(VariableDomain(f"x{p + 1}", tuple(range(m))) for p, m in enumerate(widths))
    profile = ProfileMatrix(variables, tuple(rows))
    return GeneratorSpec(ClusterSpec.from_counts(tuple(counts)), profile, draw(st.integers(0, 2**64 - 1)))


@pytest.mark.filterwarnings("ignore:identifiability")
@settings(max_examples=80, deadline=None)
@given(explicit_specs(), st.integers(1, 3), st.booleans())
def test_generate_matches_the_per_column_oracle(spec, threads, shuffle):
    data = generate(spec, threads=threads, shuffle=shuffle)
    positions, assignments = oracle_generate(spec, shuffle)
    assert data.positions.dtype == positions.dtype
    assert np.array_equal(data.positions, positions)
    assert np.array_equal(data.assignments, assignments)


class TestBuildSpec:
    def test_explicit_profile_branch(self):
        config = load_config(
            {
                "seed": 4,
                "clusters": {"C": 2, "n": 10},
                "variables": [
                    {"name": "a", "levels": [0, 1]},
                    {"name": "b", "levels": [1, 2, 3], "kind": "ordinal"},
                ],
                "profile": [
                    [[0.2, 0.8], [0.1, 0.4, 0.5]],
                    [[0.9, 0.1], [0.6, 0.3, 0.1]],
                ],
            }
        )
        built = build_spec(config)
        assert built.groups is None
        assert built.calibration is None
        assert built.spec.profile.variable_count == 2
        assert built.spec.clusters.counts == (5, 5)
        assert built.spec.profile.cell(1, 0).probs == (0.9, 0.1)

    PROFILE_CONFIG = {
        "seed": 4,
        "clusters": {"n": 10},
        "variables": [
            {"name": "a", "levels": [0, 1]},
            {"name": "b", "levels": [1, 2, 3]},
            {"name": "c", "levels": [0, 1]},
        ],
        "profile": [
            [[0.2, 0.8], [0.1, 0.4, 0.5], [0.5, 0.5]],
            [[0.9, 0.1], [0.6, 0.3, 0.1], [0.3, 0.7]],
        ],
    }

    def test_profile_rows_give_the_cluster_count(self):
        derived = build_spec(load_config(self.PROFILE_CONFIG))
        given = build_spec(load_config({**self.PROFILE_CONFIG, "clusters": {"C": 2, "n": 10}}))
        assert derived.spec.clusters == given.spec.clusters
        assert np.array_equal(generate(derived.spec).positions, generate(given.spec).positions)
        # The canonical config, and so the manifest, holds only what was given.
        assert load_config(self.PROFILE_CONFIG)["clusters"] == {"n": 10}

    def test_a_given_cluster_count_wins_over_the_profile_rows(self):
        config = load_config({**self.PROFILE_CONFIG, "clusters": {"C": 3, "n": 10}})
        with pytest.raises(SpecError, match="profile has 2 cluster rows but clusters declare 3"):
            build_spec(config)

    def test_grouped_explicit_branch(self):
        config = load_config(
            {
                "seed": 5,
                "clusters": {"n": 600},
                "groups": {
                    "k": 4,
                    "sizes": [2, 2, 5, 3],
                    "family": "explicit",
                    "H": list(H_PROBS),
                    "L": list(L_PROBS),
                },
            }
        )
        built = build_spec(config)
        assert built.spec.clusters.cluster_count == 6
        assert built.spec.profile.variable_count == 12
        assert built.spec.profile.variables[0].name == "x1"
        assert built.spec.profile.variables[11].name == "x12"
        assert built.spec.profile.variables[0].levels == SNP
        data = generate(built.spec)
        assert data.subjects == 600

    def test_grouped_snp_branch_with_noise(self):
        config = load_config(
            {
                "seed": 7,
                "clusters": {"n": 80},
                "groups": {
                    "k": 2,
                    "sizes": [2, 2],
                    "family": "snp",
                    "pH": 0.9,
                    "targets": [{"correlation": 0.4}, {"correlation": 0.5}],
                },
                "noise": [{"name": "a1", "levels": [0, 1], "probs": [0.5, 0.5]}],
            }
        )
        built = build_spec(config)
        assert built.spec.clusters.cluster_count == 4
        assert built.spec.profile.variable_count == 5
        assert built.spec.profile.variables[4].name == "a1"
        assert built.calibration is not None
        assert len(built.calibration.groups) == 2
        # Noise cells are identical across clusters.
        for c in range(4):
            assert built.spec.profile.cell(c, 4).probs == (0.5, 0.5)

    def test_group_columns_share_their_vectors(self):
        config = load_config(
            {
                "seed": 7,
                "clusters": {"n": 80},
                "groups": {
                    "k": 2,
                    "sizes": [3, 2],
                    "family": "snp",
                    "pH": 0.9,
                    "targets": [{"covariance": 0.2}, {"covariance": 0.3}],
                },
            }
        )
        built = build_spec(config)
        profile = built.spec.profile
        # Columns 0-2 belong to group 1, columns 3-4 to group 2.
        for c in range(built.spec.clusters.cluster_count):
            assert profile.cell(c, 0).probs == profile.cell(c, 1).probs
            assert profile.cell(c, 0).probs == profile.cell(c, 2).probs
            assert profile.cell(c, 3).probs == profile.cell(c, 4).probs

    @pytest.mark.parametrize(
        "groups",
        [
            {"family": "explicit", "H": list(H_PROBS), "L": list(L_PROBS)},
            {"family": "binary", "pH": 0.8, "targets": [{"correlation": 0.2}] * 4},
            {"family": "snp", "pH": 0.95, "targets": [{"covariance": 0.2}] * 4},
        ],
        ids=["explicit", "binary", "snp"],
    )
    def test_calibration_reports_the_spec_moments_under_unequal_counts(self, groups):
        config = load_config(
            {
                "seed": 3,
                "clusters": {"counts": [50, 100, 150, 100, 50, 150]},
                "groups": {"k": 4, "sizes": [2, 3, 2, 2], **groups},
            }
        )
        built = build_spec(config)
        matrices = moment_matrices(built.spec.profile, built.spec.clusters)
        start = 0
        for solved, size in zip(built.calibration.groups, built.groups.sizes):
            pair = (start, start + 1)
            assert solved.covariance == pytest.approx(matrices.covariance[pair], abs=1e-12)
            assert solved.correlation == pytest.approx(matrices.correlation[pair], abs=1e-12)
            start += size
